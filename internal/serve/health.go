package serve

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"gcolor/internal/gpucolor"
)

// Device health scoring. Every job outcome folds into a per-device EWMA
// score in [0, 1]: 1 is a device whose recent jobs all verified clean on
// the first attempt at fleet-typical latency, 0 is a device whose recent
// jobs all burned the resilience ladder. The score is what the lease path
// weights selection by (a degraded-but-alive device sheds load smoothly
// instead of flapping between "in" and "out") and what the circuit breaker
// consults to decide quarantine. A cluster coordinator scores its worker
// members with the same tracker.
//
// Two signals feed each observation:
//
//   - the typed outcome of the resilient run (gpucolor.Classify): how far
//     down the recovery ladder the job had to go, with a haircut when the
//     device's fault injector fired even though the job recovered
//     ("fault-absorbed" — the device is lying about being fine);
//   - execution latency versus the fleet's typical member: a device whose
//     successes take many multiples of what its peers need (stalled
//     workgroups, CAS storms) is degraded even if every run eventually
//     verifies.

// Outcome rewards: the EWMA input for each rung of the recovery ladder.
// Cheaper recoveries still signal partial sickness; structural failures
// score zero.
const (
	rewardSuccess     = 1.0
	rewardFaultMasked = 0.8 // clean result, but the injector fired during the run
	rewardRepaired    = 0.7
	rewardRetried     = 0.5
	rewardCPUFallback = 0.25
	rewardFailure     = 0.0
)

// outcomeReward maps a typed outcome (plus the run's injected-fault delta)
// to its EWMA reward. The bool is false for outcomes that must not move
// the score at all (cancellation: hedge losers and abandoned waiters say
// nothing about device health).
func outcomeReward(kind gpucolor.OutcomeKind, faultsDelta int64) (float64, bool) {
	switch kind {
	case gpucolor.OutcomeSuccess:
		if faultsDelta > 0 {
			return rewardFaultMasked, true
		}
		return rewardSuccess, true
	case gpucolor.OutcomeRepaired:
		return rewardRepaired, true
	case gpucolor.OutcomeRetried:
		return rewardRetried, true
	case gpucolor.OutcomeCPUFallback:
		return rewardCPUFallback, true
	case gpucolor.OutcomeCanceled:
		return 0, false
	default: // watchdog, budget-exhausted, failed
		return rewardFailure, true
	}
}

// healthLatWindow is the shared ring of recent execution times from which
// the fleet's reference latency is derived. Small and fixed: it only needs
// to track the current workload mix, not history.
const healthLatWindow = 128

// latencySlack is how many multiples of the reference latency a job may
// take before its reward is cut by latency.
const latencySlack = 4

// healthAlpha is the EWMA weight of the newest health observation.
const healthAlpha = 0.2

// ProbationScore is the health score a re-admitted device or cluster
// member restarts at: high enough not to re-trip at once on its stale
// quarantine-era EWMA, low enough to keep its share of load small until
// it proves itself.
const ProbationScore = 0.6

// FleetHealth tracks one EWMA score in [0, 1] per pooled device or cluster
// member plus the shared recent-latency ring from which the latency
// penalty's reference is derived. All methods are safe for concurrent use.
type FleetHealth struct {
	alpha float64 // EWMA weight of the newest observation

	mu      sync.Mutex
	scores  []float64
	ring    [healthLatWindow]latSample // recent jobs that did not fail, fleet-wide
	ringN   int                        // observations recorded (caps at window)
	ringI   int                        // next write position
	scratch [healthLatWindow]latSample
	medians [healthLatWindow]int64 // per-member medians, referenceLocked's scratch
}

// latSample is one job in the latency ring: who ran it and how long it took.
type latSample struct {
	member int
	ns     int64
}

// NewFleetHealth builds an empty tracker with the healthAlpha EWMA
// weight: a cluster's, whose members join at runtime (AddMember).
func NewFleetHealth() *FleetHealth {
	return newFleetHealth(0, healthAlpha)
}

// newFleetHealth builds a tracker for n devices, all scored 1.
func newFleetHealth(n int, alpha float64) *FleetHealth {
	h := &FleetHealth{alpha: alpha, scores: make([]float64, n)}
	for i := range h.scores {
		h.scores[i] = 1
	}
	return h
}

// AddMember appends one member at full health and returns its index.
func (h *FleetHealth) AddMember() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.scores = append(h.scores, 1)
	return len(h.scores) - 1
}

// Observe folds one finished job into member idx's score and returns the
// updated value. exec == 0 skips the latency signal (CPU-fallback runs
// and tests). A failed job (reward 0) stays out of the latency ring: how
// fast a job fails says nothing about how long a job takes.
func (h *FleetHealth) Observe(idx int, reward float64, exec time.Duration) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if exec > 0 {
		ref := h.referenceLocked()
		if reward > rewardFailure {
			h.ring[h.ringI] = latSample{member: idx, ns: int64(exec)}
			h.ringI = (h.ringI + 1) % healthLatWindow
			if h.ringN < healthLatWindow {
				h.ringN++
			}
		}
		// Latency penalty: beyond slack× the reference, the reward
		// shrinks proportionally (a 4×-slack run at 8× the reference
		// keeps half its reward), floored so one glacial success cannot
		// zero a score by itself.
		if ref > 0 && float64(exec) > latencySlack*float64(ref) {
			factor := latencySlack * float64(ref) / float64(exec)
			if factor < 0.1 {
				factor = 0.1
			}
			reward *= factor
		}
	}
	h.scores[idx] = (1-h.alpha)*h.scores[idx] + h.alpha*reward
	return h.scores[idx]
}

// Score returns member idx's current health score.
func (h *FleetHealth) Score(idx int) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.scores[idx]
}

// Boost raises member idx's score to at least floor. Called on breaker
// re-admission: a quarantined member's EWMA is frozen at its sick value,
// and without the probation reset the breaker would re-trip on the stale
// score before the first post-readmission job could move it.
func (h *FleetHealth) Boost(idx int, floor float64) {
	h.mu.Lock()
	if h.scores[idx] < floor {
		h.scores[idx] = floor
	}
	h.mu.Unlock()
}

// referenceLocked returns the latency a job is judged against: the median
// over members of each member's median latency in the ring (the lower
// one of an even count; 0 when the ring is empty). Each member counts
// once however many jobs it ran, so a slow member that owns most of the
// traffic cannot make its own latency the reference, and a fleet of two
// judges both members against the faster one. Called with h.mu held.
func (h *FleetHealth) referenceLocked() int64 {
	xs := h.scratch[:h.ringN]
	copy(xs, h.ring[:h.ringN])
	slices.SortFunc(xs, func(a, b latSample) int {
		return cmp.Or(cmp.Compare(a.member, b.member), cmp.Compare(a.ns, b.ns))
	})
	meds := h.medians[:0]
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && xs[j].member == xs[i].member {
			j++
		}
		meds = append(meds, xs[i+(j-i)/2].ns)
		i = j
	}
	if len(meds) == 0 {
		return 0
	}
	slices.Sort(meds)
	return meds[(len(meds)-1)/2]
}
