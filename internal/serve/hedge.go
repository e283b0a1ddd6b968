package serve

import (
	"sort"
	"sync"
	"time"
)

// Hedged re-dispatch threshold. The classic tail-tolerance move: a job
// still running past the P99 of recent successful executions is probably
// stuck on a sick or stalled device, so the server speculatively
// re-dispatches it to a second, healthy device; first result wins and the
// loser is canceled through the resilient driver's context plumbing.
//
// Only successful executions feed the estimate — failures are what hedging
// routes around, and folding their (often watchdog-bounded) latencies into
// the threshold would raise it exactly when it most needs to stay low.
// Hedging stays off until minSamples observations exist, so cold servers
// and tests with two requests never speculate.

// hedgeWindow is the number of recent successful exec times retained.
const hedgeWindow = 512

// hedgeRecompute is how many observations between P99 recomputations.
const hedgeRecompute = 32

// hedgeMultiple scales the P99 into the hedge threshold.
const hedgeMultiple = 1

// hedgeMinSamples is how many successful executions a server observes
// before hedging activates.
const hedgeMinSamples = 64

// hedgeFloor is the least hedge threshold, so a fleet of microsecond jobs
// does not hedge on scheduler noise.
const hedgeFloor = 2 * time.Millisecond

type hedgeTracker struct {
	minSamples int
	floor      time.Duration

	mu        sync.Mutex
	ring      [hedgeWindow]int64
	n, idx    int
	sinceCalc int
	cachedP99 int64
	scratch   [hedgeWindow]int64
}

func newHedgeTracker(minSamples int, floor time.Duration) *hedgeTracker {
	return &hedgeTracker{minSamples: minSamples, floor: floor}
}

// observe records one successful execution time.
func (h *hedgeTracker) observe(exec time.Duration) {
	if exec <= 0 {
		return
	}
	h.mu.Lock()
	h.ring[h.idx] = int64(exec)
	h.idx = (h.idx + 1) % hedgeWindow
	if h.n < hedgeWindow {
		h.n++
	}
	h.sinceCalc++
	if h.cachedP99 == 0 || h.sinceCalc >= hedgeRecompute {
		h.sinceCalc = 0
		h.cachedP99 = h.p99Locked()
	}
	h.mu.Unlock()
}

// p99Locked computes the P99 of the ring. Called with h.mu held.
func (h *hedgeTracker) p99Locked() int64 {
	if h.n == 0 {
		return 0
	}
	xs := h.scratch[:h.n]
	copy(xs, h.ring[:h.n])
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[(h.n-1)*99/100]
}

// threshold returns the current hedge trigger and whether hedging is
// active (enough samples recorded).
func (h *hedgeTracker) threshold() (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n < h.minSamples {
		return 0, false
	}
	thr := time.Duration(hedgeMultiple * h.cachedP99)
	if thr < h.floor {
		thr = h.floor
	}
	return thr, true
}

// samples returns the number of observations recorded so far.
func (h *hedgeTracker) samples() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}
