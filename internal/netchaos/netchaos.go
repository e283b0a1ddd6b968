// Package netchaos is a deterministic, seeded network fault layer for the
// cluster control plane — the wire-level sibling of simt.FaultInjector.
//
// It injects the failure modes real fleets die from but clean-crash tests
// never exercise: added latency (a gray worker that still answers 2xx),
// request drops (the peer never sees the call), response resets (the peer
// did the work but the caller sees a transport error — the dangerous
// asymmetric case for exactly-once accounting), and full or one-way
// partitions between any coordinator/worker pair.
//
// Mirroring simt.FaultInjector:
//
//   - every probabilistic decision is a pure function of (Seed, link,
//     per-link ordinal), so a run is reproducible given the seed and the
//     order of traversals on each link;
//   - Arm/Disarm is a single atomic gate so faults can be toggled mid-run
//     without locks on the hot path;
//   - every injected fault bumps an atomic counter surfaced by Stats.
//
// Two frontends share one Injector: Transport wraps an http.RoundTripper
// for in-process clients (the coordinator's worker client in tests and the
// gray-failure drill), and Proxy carries real TCP connections, so a drill
// can fault a link whatever client dials it (internal/cluster's
// TestPartitionDrillFailover fronts one worker with it).
package netchaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Fault classes, used to salt the per-class decision streams so e.g. the
// drop stream and the reset stream on one link are independent.
const (
	classDrop = iota + 1
	classReset
	classJitter
)

// Errors returned to the caller when a fault fires. They surface through
// http.Client wrapped in *url.Error, so match with errors.Is on the
// unwrapped chain.
var (
	ErrDropped     = errors.New("netchaos: request dropped")
	ErrReset       = errors.New("netchaos: connection reset")
	ErrPartitioned = errors.New("netchaos: link partitioned")
)

// Stats is an atomic snapshot of injected faults.
type Stats struct {
	Requests int64 // traversals observed while armed
	Drops    int64 // requests discarded before reaching the peer
	Resets   int64 // responses discarded after the peer processed the request
	Delays   int64 // traversals that had latency added
	Blocked  int64 // traversals refused by a partition rule
}

// Injected reports the total number of faults injected.
func (s Stats) Injected() int64 { return s.Drops + s.Resets + s.Delays + s.Blocked }

// link holds the per-destination fault state. Links are keyed by the
// destination host:port, created on first traversal, and never removed.
type link struct {
	ordinal        atomic.Uint64 // traversal counter; drives the decision stream
	blockRequests  atomic.Bool   // partition: nothing reaches the peer
	blockResponses atomic.Bool   // asymmetric partition: peer sees the request, caller never sees the reply
	latencyNS      atomic.Int64  // per-link added latency; -1 means "use injector default"
}

// Injector decides, deterministically, what happens to each traversal of
// each link. The zero value is armed with no faults configured; use New to
// get defaulted per-link latency handling.
type Injector struct {
	// Seed decorrelates runs. Two injectors with the same Seed and the same
	// per-link traversal order make identical decisions.
	Seed uint64
	// DropRate is the probability a request is discarded before the peer
	// sees it. DropRate 1.0 drops everything.
	DropRate float64
	// ResetRate is the probability a response is discarded after the peer
	// has fully processed the request.
	ResetRate float64
	// Latency is added to every traversal of every link that has no
	// per-link override. Jitter adds a deterministic extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration

	// disarmed is inverted so the zero value is armed, matching
	// simt.FaultInjector.
	disarmed atomic.Bool

	mu    sync.Mutex
	links map[string]*link

	requests atomic.Int64
	drops    atomic.Int64
	resets   atomic.Int64
	delays   atomic.Int64
	blocked  atomic.Int64
}

// New returns an Injector with the given seed and no faults configured.
// Configure rates/latency directly, or use the per-host controls.
func New(seed uint64) *Injector {
	return &Injector{Seed: seed}
}

// Arm enables fault injection (the initial state).
func (in *Injector) Arm() { in.disarmed.Store(false) }

// Disarm heals the network: all traversals pass through untouched until
// Arm is called again. Partition rules and latency overrides are kept but
// dormant.
func (in *Injector) Disarm() { in.disarmed.Store(true) }

// Armed reports whether faults are live.
func (in *Injector) Armed() bool { return !in.disarmed.Load() }

// Stats returns a snapshot of injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Requests: in.requests.Load(),
		Drops:    in.drops.Load(),
		Resets:   in.resets.Load(),
		Delays:   in.delays.Load(),
		Blocked:  in.blocked.Load(),
	}
}

func (in *Injector) link(host string) *link {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.links == nil {
		in.links = make(map[string]*link)
	}
	l := in.links[host]
	if l == nil {
		l = &link{}
		l.latencyNS.Store(-1)
		in.links[host] = l
	}
	return l
}

// Partition blackholes the link to host in both directions: requests are
// refused and nothing reaches the peer.
func (in *Injector) Partition(host string) {
	l := in.link(host)
	l.blockRequests.Store(true)
	l.blockResponses.Store(true)
}

// PartitionOneWay models the asymmetric failure: requests reach the peer
// and are fully processed, but every response is lost. The caller sees a
// reset; the peer saw a normal request.
func (in *Injector) PartitionOneWay(host string) {
	l := in.link(host)
	l.blockRequests.Store(false)
	l.blockResponses.Store(true)
}

// SlowHost overrides the added latency for one host (the gray-failure
// knob: the peer still answers, just slowly). d <= 0 restores the
// injector-wide default.
func (in *Injector) SlowHost(host string, d time.Duration) {
	l := in.link(host)
	if d <= 0 {
		l.latencyNS.Store(-1)
		return
	}
	l.latencyNS.Store(int64(d))
}

// Heal clears partition rules and latency overrides for one host.
func (in *Injector) Heal(host string) {
	l := in.link(host)
	l.blockRequests.Store(false)
	l.blockResponses.Store(false)
	l.latencyNS.Store(-1)
}

// HealAll clears partition rules and latency overrides on every link.
func (in *Injector) HealAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, l := range in.links {
		l.blockRequests.Store(false)
		l.blockResponses.Store(false)
		l.latencyNS.Store(-1)
	}
}

// RequestsBlocked reports whether new requests to host are currently
// refused by a partition rule (used by Proxy accept loops).
func (in *Injector) RequestsBlocked(host string) bool {
	return in.Armed() && in.link(host).blockRequests.Load()
}

// ResponsesBlocked reports whether responses from host are discarded.
func (in *Injector) ResponsesBlocked(host string) bool {
	return in.Armed() && in.link(host).blockResponses.Load()
}

// mix64 is the splitmix64 finalizer — the same mixer the cluster's
// rendezvous hash uses.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv1a64 hashes the link key (destination host:port).
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// decide is the pure decision function: true iff the fault of the given
// class fires on the n-th traversal of the link. rate <= 0 never fires;
// rate >= 1 always fires.
func decide(seed uint64, class int, linkHash, ordinal uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	x := mix64(seed ^ linkHash ^ (uint64(class) * 0x9e3779b97f4a7c15) ^ mix64(ordinal))
	// Map the top 53 bits to [0, 1).
	return float64(x>>11)/float64(1<<53) < rate
}

// verdict is what the injector decided for one traversal of one link.
type verdict struct {
	drop    bool // discard before the peer sees it
	reset   bool // deliver, then discard the response
	blocked bool // refused by a partition rule (counts separately from drop)
	delay   time.Duration
}

// traverse consumes one ordinal on the link to host and returns the fate
// of that traversal. Disarmed injectors pass everything through without
// consuming ordinals, so traffic sent while healed does not shift the
// decision stream for later armed traversals.
func (in *Injector) traverse(host string) verdict {
	if !in.Armed() {
		return verdict{}
	}
	in.requests.Add(1)
	l := in.link(host)
	n := l.ordinal.Add(1)
	lh := fnv1a64(host)

	var v verdict
	if l.blockRequests.Load() {
		v.blocked = true
		in.blocked.Add(1)
		return v
	}
	if decide(in.Seed, classDrop, lh, n, in.DropRate) {
		v.drop = true
		in.drops.Add(1)
		return v
	}
	v.reset = l.blockResponses.Load() || decide(in.Seed, classReset, lh, n, in.ResetRate)

	d := in.Latency
	if ov := l.latencyNS.Load(); ov >= 0 {
		d = time.Duration(ov)
	}
	if d > 0 && in.Jitter > 0 {
		j := mix64(in.Seed ^ lh ^ mix64(n) ^ mix64(classJitter))
		d += time.Duration(j % uint64(in.Jitter))
	}
	v.delay = d
	return v
}

// sleep waits for d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Transport wraps base so every request through it traverses the injector,
// keyed by the request's destination host. A nil base uses
// http.DefaultTransport.
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base}
}

type transport struct {
	in   *Injector
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper. Faults map to the wire-level
// failure the caller of a real network would see:
//
//   - partition/drop: the request body is consumed and discarded, the peer
//     never sees the call, and the caller gets a transport error;
//   - latency: the traversal stalls before the request is forwarded
//     (respecting the request context);
//   - reset / one-way partition: the request is forwarded and fully
//     processed by the peer, then the response is discarded and the caller
//     gets a reset error — the peer and caller now disagree about whether
//     the call happened.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	v := t.in.traverse(req.URL.Host)
	if v.blocked || v.drop {
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		if v.blocked {
			return nil, fmt.Errorf("%w: %s", ErrPartitioned, req.URL.Host)
		}
		return nil, fmt.Errorf("%w: %s", ErrDropped, req.URL.Host)
	}
	if v.delay > 0 {
		t.in.delays.Add(1)
		if err := sleep(req.Context(), v.delay); err != nil {
			if req.Body != nil {
				io.Copy(io.Discard, req.Body)
				req.Body.Close()
			}
			return nil, err
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	// Re-check the asymmetric rule after the peer responded, so a
	// partition raised mid-flight still severs the reply.
	if v.reset || t.in.ResponsesBlocked(req.URL.Host) {
		t.in.resets.Add(1)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%w: %s", ErrReset, req.URL.Host)
	}
	return resp, nil
}
