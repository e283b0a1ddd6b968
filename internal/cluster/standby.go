package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"gcolor/internal/journal"
)

// bindWindow bounds the takeover's listen retry loop: a SIGKILLed
// primary's socket may linger briefly.
const bindWindow = 5 * time.Second

// StandbyConfig sizes a warm-standby coordinator.
type StandbyConfig struct {
	// JournalDir is the primary's journal directory, which the standby
	// tails (shared storage: same filesystem in-box, or a replicated
	// mount across boxes).
	JournalDir string
	// PrimaryURL is the primary coordinator's base URL, probed on the
	// heartbeat cadence.
	PrimaryURL string
	// TakeoverAddr is the listen address the standby binds when it takes
	// over — typically the fleet's front-door address, freed by the dead
	// primary. "" skips binding (the caller owns serving).
	TakeoverAddr string
	// HeartbeatInterval paces both the primary probe and the journal poll
	// (default 500ms).
	HeartbeatInterval time.Duration
	// MissThreshold is the consecutive probe failures that trigger
	// takeover (default 3) — same hysteresis discipline as worker
	// liveness, so one dropped probe on a flaky link does not fork the
	// control plane.
	MissThreshold int
	// Owner names this standby in the lease file (diagnostics only).
	Owner string
	// Journal tunes the journal the takeover coordinator appends to.
	Journal journal.Options
	// Cluster is the coordinator configuration used at takeover; Epoch,
	// Journal, and Recovery are filled in by the takeover itself.
	Cluster Config
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c StandbyConfig) withDefaults() StandbyConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.MissThreshold < 1 {
		c.MissThreshold = 3
	}
	return c
}

// Takeover is the product of a standby promotion: a live coordinator
// fenced at a fresh epoch, warm-started from the dead primary's journal.
type Takeover struct {
	// Coordinator is serving (replay of pending accepts runs in its
	// background, exactly like a crash-restart recovery).
	Coordinator *Coordinator
	// Journal is the takeover's open journal in the shared directory; the
	// caller owns Close.
	Journal *journal.Journal
	// Epoch is the fencing epoch acquired from the lease.
	Epoch uint64
	// Pending is how many accepted-but-unfinished jobs the takeover
	// re-dispatched.
	Pending int
	// Listener is bound to TakeoverAddr ("" config leaves it nil); the
	// caller serves Handler(Coordinator) on it.
	Listener net.Listener
	// DetectedAt and ReadyAt bracket the takeover: last missed probe to
	// coordinator constructed.
	DetectedAt, ReadyAt time.Time
}

// Standby tails a primary coordinator's journal and takes over when the
// primary stops answering. One Run per Standby.
type Standby struct {
	cfg      StandbyConfig
	follower *journal.Follower
	client   *http.Client
}

// NewStandby builds a standby for the given primary.
func NewStandby(cfg StandbyConfig) *Standby {
	cfg = cfg.withDefaults()
	return &Standby{
		cfg:      cfg,
		follower: journal.NewFollower(cfg.JournalDir),
		client:   newControlClient(cfg.HeartbeatInterval * 2),
	}
}

func (s *Standby) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Run watches the primary until it dies (returning the takeover) or ctx
// ends (returning ctx.Err). The loop interleaves journal polls with
// liveness probes so the follower is always within one flush interval of
// the primary's tail when the takeover happens.
func (s *Standby) Run(ctx context.Context) (*Takeover, error) {
	primary := normalizeAddr(s.cfg.PrimaryURL)
	misses := 0
	t := time.NewTicker(s.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
		if n, err := s.follower.Poll(); err != nil {
			s.logf("standby: journal poll: %v", err)
		} else if n > 0 {
			s.logf("standby: followed %d records", n)
		}
		if s.probePrimary(ctx, primary) {
			misses = 0
			continue
		}
		misses++
		s.logf("standby: primary miss %d/%d", misses, s.cfg.MissThreshold)
		if misses >= s.cfg.MissThreshold {
			return s.takeover(ctx)
		}
	}
}

// probePrimary reports whether the primary answered its healthz.
func (s *Standby) probePrimary(ctx context.Context, primary string) bool {
	pctx, cancel := context.WithTimeout(ctx, s.cfg.HeartbeatInterval*2)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, primary+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode < 300
}

// takeover promotes this standby: acquire the next epoch, drain the
// journal tail, open it for appends, bind the front door, and build the
// coordinator with the recovered state. Failure before the lease write is
// retryable by a fresh Run; failure after leaves the lease bumped, which
// is safe — epochs only fence, they reserve nothing.
func (s *Standby) takeover(ctx context.Context) (*Takeover, error) {
	detected := time.Now()
	lease, err := AcquireLease(s.cfg.JournalDir, s.cfg.Owner)
	if err != nil {
		return nil, fmt.Errorf("cluster: standby takeover: %w", err)
	}
	s.logf("standby: taking over at epoch %d", lease.Epoch)
	// One final poll: the primary's last group-commit flush may have
	// landed after our last tick.
	if _, err := s.follower.Poll(); err != nil {
		s.logf("standby: final poll: %v", err)
	}
	rec := s.follower.Recovery()

	jnl, err := journal.OpenAppend(s.cfg.JournalDir, s.cfg.Journal)
	if err != nil {
		return nil, fmt.Errorf("cluster: standby takeover: %w", err)
	}

	var ln net.Listener
	if s.cfg.TakeoverAddr != "" {
		ln, err = bindWithin(ctx, s.cfg.TakeoverAddr, bindWindow)
		if err != nil {
			jnl.Close()
			return nil, fmt.Errorf("cluster: standby takeover: bind %s: %w", s.cfg.TakeoverAddr, err)
		}
	}

	cfg := s.cfg.Cluster
	cfg.Epoch = lease.Epoch
	cfg.Journal = jnl
	cfg.Recovery = rec
	coord := NewCoordinator(cfg)
	ready := time.Now()
	// Floor at 1ms: zero is the "not a takeover" sentinel, and a takeover
	// faster than the clock tick must still read as one.
	ms := ready.Sub(detected).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	coord.SetTakeoverMS(ms)
	s.logf("standby: serving at epoch %d (%d pending replayed, takeover %dms)",
		lease.Epoch, len(rec.Pending), ready.Sub(detected).Milliseconds())
	return &Takeover{
		Coordinator: coord,
		Journal:     jnl,
		Epoch:       lease.Epoch,
		Pending:     len(rec.Pending),
		Listener:    ln,
		DetectedAt:  detected,
		ReadyAt:     ready,
	}, nil
}

// bindWithin retries the listen until it succeeds or the window closes: a
// SIGKILLed primary's port can linger in the kernel for a beat.
func bindWithin(ctx context.Context, addr string, window time.Duration) (net.Listener, error) {
	deadline := time.Now().Add(window)
	var lastErr error
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, lastErr
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}
