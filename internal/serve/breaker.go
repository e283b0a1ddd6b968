package serve

import (
	"sync"
	"time"
)

// Circuit breaker. Each pooled device carries one, as does each cluster
// member; together with the health score it is the quarantine mechanism:
//
//	closed ──(consecutive failures ≥ threshold, or health < OpenBelow)──▶ open
//	open ──(cooldown elapsed, next lease request)──▶ half-open
//	half-open ──(ProbeSuccesses consecutive clean probes)──▶ closed
//	half-open ──(any probe failure)──▶ open (cooldown doubled, capped)
//
// While open the device is quarantined: the lease path skips it entirely
// (except for the all-devices-open fail-open rule, see pool.go). In
// half-open the device is on probation: real jobs trickle onto it one at
// a time as probe leases, and only a run of clean probes re-admits it.
// Re-admission boosts the health score to probation level so the stale
// quarantine-era EWMA cannot immediately re-trip the breaker.
//
// The clock is injectable (now func) so the state machine is table-testable
// without sleeping.

// BreakerState is the circuit state of one pooled device or cluster member.
type BreakerState int

const (
	// BreakerClosed: healthy, serving normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: quarantined, receiving no work until cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: on probation, served only by sequential probe jobs.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breakerConfig holds a breaker's resolved thresholds: a device's come
// from SelfHealConfig, a cluster member's are SelfHealConfig's defaults.
type breakerConfig struct {
	failureThreshold int           // consecutive failures tripping closed → open
	openBelow        float64       // health score below which closed trips
	cooldown         time.Duration // open → half-open delay (base)
	maxCooldown      time.Duration // backoff cap after repeated probe failures
	probeSuccesses   int           // consecutive clean probes to close
}

// Breaker is the circuit breaker of one pooled device or one cluster
// member (a worker is just a bigger device). All methods are safe for
// concurrent use.
type Breaker struct {
	cfg breakerConfig
	now func() time.Time

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	cooldown    time.Duration // current (possibly backed-off) cooldown
	probeOK     int
	probeBusy   bool // a probe lease is outstanding
}

// NewBreaker builds a breaker with SelfHealConfig's default thresholds and
// the wall clock: a cluster member's.
func NewBreaker() *Breaker {
	return newBreaker(SelfHealConfig{}.withDefaults().breakerConfig(), nil)
}

// newBreaker builds a breaker from resolved thresholds; a nil now means
// the wall clock.
func newBreaker(cfg breakerConfig, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{cfg: cfg, now: now, cooldown: cfg.cooldown}
}

// State returns the current state, applying the time-based open → half-open
// transition lazily.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	return b.state
}

// tickLocked advances open → half-open once the cooldown has elapsed.
func (b *Breaker) tickLocked() {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		b.state = BreakerHalfOpen
		b.probeOK = 0
		b.probeBusy = false
	}
}

// Allow reports whether the device may take a regular (non-probe) job.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	return b.state == BreakerClosed
}

// TryProbe reserves the (single) probe slot of a half-open device,
// advancing open → half-open first if the cooldown has elapsed. The
// reservation is released by RecordProbe or ReleaseProbe.
func (b *Breaker) TryProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	if b.state != BreakerHalfOpen || b.probeBusy {
		return false
	}
	b.probeBusy = true
	return true
}

// ReleaseProbe frees the probe slot without judging the device (the probe
// job was canceled, not failed).
func (b *Breaker) ReleaseProbe() {
	b.mu.Lock()
	b.probeBusy = false
	b.mu.Unlock()
}

// Record folds one normal (non-probe) job outcome into the breaker; score
// is the device's post-observation health score. It reports whether the
// outcome tripped the breaker open.
func (b *Breaker) Record(good bool, score float64) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	if b.state != BreakerClosed {
		// A fail-open lease finished on a quarantined device; it carries no
		// probation weight.
		return false
	}
	if good {
		b.consecFails = 0
	} else {
		b.consecFails++
	}
	if b.consecFails >= b.cfg.failureThreshold || score < b.cfg.openBelow {
		b.openLocked()
		return true
	}
	return false
}

// RecordProbe folds one probe outcome into a half-open breaker and reports
// the transition it caused. A clean run counts toward probation and
// re-admits once it is long enough; any failure re-opens (trips) with a
// doubled, capped cooldown.
func (b *Breaker) RecordProbe(good bool) (tripped, readmitted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probeBusy = false
	if b.state != BreakerHalfOpen {
		return false, false
	}
	if !good {
		b.cooldown *= 2
		if b.cooldown > b.cfg.maxCooldown {
			b.cooldown = b.cfg.maxCooldown
		}
		b.openLocked()
		return true, false
	}
	b.probeOK++
	if b.probeOK >= b.cfg.probeSuccesses {
		b.state = BreakerClosed
		b.consecFails = 0
		b.cooldown = b.cfg.cooldown
		return false, true
	}
	return false, false
}

// openLocked enters the open state. Called with b.mu held.
func (b *Breaker) openLocked() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.consecFails = 0
	b.probeOK = 0
	b.probeBusy = false
}
