package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"gcolor/internal/serve"
)

// member is one registered worker. Members are never deleted — a worker
// that stops heartbeating is down, not forgotten, so /clusterz keeps the
// evidence and a returning worker reclaims its id (and its breaker
// history) by address.
type member struct {
	id       int    // index into the registry's health tracker
	addr     string // base URL, e.g. http://10.0.0.7:8421
	addrHash uint64 // fnv1a64(addr), the rendezvous identity
	static   bool   // pinned by -peers (true) or joined at runtime

	brk *serve.Breaker

	mu       sync.Mutex
	lastSeen time.Time  // last successful probe or push heartbeat
	instance string     // worker-supplied stable instance ID ("" until a join carries one)
	hy       hysteresis // heartbeat demotion/re-admission streaks
	lat      latRing    // recent dispatch latencies (µs)

	jobs      atomic.Int64 // jobs dispatched to this worker (routes + shards)
	failures  atomic.Int64 // dispatches that failed on this worker
	probeJobs atomic.Int64 // jobs that rode a half-open probe slot

	// Reported by the worker's /healthz on each heartbeat; the fleet-level
	// Retry-After is computed from these.
	queueDepth atomic.Int64
	devices    atomic.Int64
	execP50    atomic.Int64 // worker-reported exec P50 (µs)
}

// seen marks the member live now; the return reports whether this
// evidence re-admitted a heartbeat-demoted member.
func (m *member) seen(now time.Time) (readmitted bool) {
	m.mu.Lock()
	m.lastSeen = now
	readmitted = m.hy.hit()
	m.mu.Unlock()
	return readmitted
}

// missed records a failed heartbeat probe; the return reports whether this
// miss demoted the member.
func (m *member) missed() (demoted bool) {
	m.mu.Lock()
	demoted = m.hy.miss()
	m.mu.Unlock()
	return demoted
}

// aliveAt reports whether the member is neither heartbeat-demoted nor
// expired (see aliveLocked).
func (m *member) aliveAt(now time.Time, expire time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aliveLocked(now, expire)
}

// aliveLocked is aliveAt with m.mu held. A member expires when it has gone
// unseen for longer than expire, or at once when its lastSeen is zero:
// upsert zeroes it for an address its instance has moved away from.
// expire 0 means silence never expires a member (probing is off).
func (m *member) aliveLocked(now time.Time, expire time.Duration) bool {
	if m.hy.down || m.lastSeen.IsZero() {
		return false
	}
	return expire == 0 || now.Sub(m.lastSeen) <= expire
}

// registry is the coordinator's membership table: address-keyed members,
// one shared EWMA health tracker, and one circuit breaker per member.
// All methods are safe for concurrent use.
type registry struct {
	expire time.Duration // 0: silence never expires a member

	health *serve.FleetHealth
	// latency, when set, is what the health scores observe for a dispatch
	// in place of its measured round trip. Tests set it (export_test.go)
	// so the gray signal is the latency they inject, not the host's speed.
	latency atomic.Pointer[func(addr string, measured time.Duration) time.Duration]

	mu      sync.Mutex
	members []*member // id-indexed
	byAddr  map[string]*member

	quarantines atomic.Int64
	readmitted  atomic.Int64
	probes      atomic.Int64

	grayDemotions atomic.Int64 // picks where a gray member lost its rendezvous rank
	hbDemotions   atomic.Int64 // heartbeat-miss-streak demotions
	hbReadmits    atomic.Int64 // hit-streak re-admissions
	rebinds       atomic.Int64 // instance IDs re-joining from a new address
}

// newRegistry builds the membership table for a probe interval: a member
// expires after expireProbes intervals of silence, or never while probing
// is off (interval < 0).
func newRegistry(interval time.Duration) *registry {
	r := &registry{health: serve.NewFleetHealth(), byAddr: make(map[string]*member)}
	if interval > 0 {
		r.expire = expireProbes * interval
	}
	return r
}

// upsert registers a worker by address (idempotent: a re-join refreshes
// liveness and returns the existing member, breaker history intact).
// instance, when non-empty, is the worker's stable identity: a join whose
// instance is already bound to a different address means the worker
// restarted on a new port, so the old address is force-expired rather than
// left to linger as a phantom second copy of the same worker.
func (r *registry) upsert(addr, instance string, static bool) *member {
	now := time.Now()
	r.mu.Lock()
	m, ok := r.byAddr[addr]
	if !ok {
		m = &member{
			id:       r.health.AddMember(),
			addr:     addr,
			addrHash: fnv1a64(addr),
			static:   static,
			brk:      serve.NewBreaker(),
			hy:       hysteresis{missThreshold: heartbeatMisses, readmitStreak: readmitStreak},
		}
		m.lastSeen = now
		r.members = append(r.members, m)
		r.byAddr[addr] = m
	}
	if instance != "" {
		for _, other := range r.members {
			if other == m {
				continue
			}
			other.mu.Lock()
			stale := other.instance == instance
			if stale {
				// The instance moved: its old address is dead even if its
				// expiry window has not elapsed yet.
				other.instance = ""
				other.lastSeen = time.Time{}
			}
			other.mu.Unlock()
			if stale {
				r.rebinds.Add(1)
			}
		}
		m.mu.Lock()
		m.instance = instance
		m.mu.Unlock()
	}
	r.mu.Unlock()
	if m.seen(now) {
		r.hbReadmits.Add(1)
	}
	return m
}

// all snapshots the member list (the slice is fresh; members are shared).
func (r *registry) all() []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*member, len(r.members))
	copy(out, r.members)
	return out
}

// alive returns the members neither demoted nor expired.
func (r *registry) alive() []*member {
	now := time.Now()
	var out []*member
	for _, m := range r.all() {
		if m.aliveAt(now, r.expire) {
			out = append(out, m)
		}
	}
	return out
}

// size returns the number of registered members.
func (r *registry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.members)
}

// pick selects the worker for key among the live members not in exclude:
// rendezvous order over breaker-closed members whose health clears the
// gray threshold first; then breaker-closed gray members (slow beats
// refused); then a half-open member whose probe slot is free (the job
// doubles as the probe); then rendezvous order over everyone alive (the
// all-open fail-open rule — a fleet that quarantined every worker must
// keep trying rather than refuse all traffic). probe reports that the
// returned member's probe slot was reserved; the caller must settle it
// with observe. ErrNoWorkers means no live non-excluded member exists.
//
// The gray pass is the load-imbalance lesson at fleet granularity: a
// worker that answers 2xx but 10x slower than its peers drags every job it
// owns, and its breaker — which counts failures, not slowness — never
// trips. Its EWMA health (penalized for latency against its peers') does
// sag, so members below grayScore lose their rendezvous preference while
// staying in the fleet for overflow and recovery.
func (r *registry) pick(key uint64, exclude map[int]bool) (m *member, probe bool, err error) {
	live := r.alive()
	candidates := live[:0:0]
	for _, mm := range live {
		if !exclude[mm.id] {
			candidates = append(candidates, mm)
		}
	}
	if len(candidates) == 0 {
		return nil, false, ErrNoWorkers
	}
	ranked := rankMembers(key, candidates)
	var gray []*member
	for _, mm := range ranked {
		if !mm.brk.Allow() {
			continue
		}
		if len(ranked) > 1 && r.health.Score(mm.id) < grayScore {
			gray = append(gray, mm)
			continue
		}
		if len(gray) > 0 {
			// A healthy member is serving a key a gray member ranked higher
			// for: that is the demotion, observable before any breaker state
			// changes.
			r.grayDemotions.Add(1)
		}
		return mm, false, nil
	}
	for _, mm := range gray {
		return mm, false, nil
	}
	for _, mm := range ranked {
		if mm.brk.TryProbe() {
			r.probes.Add(1)
			mm.probeJobs.Add(1)
			return mm, true, nil
		}
	}
	// Fail open: every candidate is quarantined (or probe-busy); the
	// rendezvous owner still gets the job so the fleet degrades to "slow
	// and suspicious" rather than "down".
	return ranked[0], false, nil
}

// observe folds one dispatch outcome into the member's health score and
// breaker. reward follows the serve ladder shape: 1 for a clean answer,
// 0.5 for an overload rejection (the worker is loaded, not broken), 0 for
// a failure. good is what the breaker counts as failure-free.
func (r *registry) observe(m *member, probe, good bool, reward float64, exec time.Duration) {
	scored := exec
	if f := r.latency.Load(); f != nil {
		scored = (*f)(m.addr, exec)
	}
	score := r.health.Observe(m.id, reward, scored)
	m.mu.Lock()
	m.lat.add(exec.Microseconds())
	m.mu.Unlock()
	if !good {
		m.failures.Add(1)
	}
	if probe {
		tripped, readmitted := m.brk.RecordProbe(good)
		if tripped {
			r.quarantines.Add(1)
		}
		if readmitted {
			r.readmitted.Add(1)
			r.health.Boost(m.id, serve.ProbationScore)
		}
		return
	}
	if m.brk.Record(good, score) {
		r.quarantines.Add(1)
	}
}

// MemberInfo is the /clusterz (and Stats) view of one worker.
type MemberInfo struct {
	ID         int     `json:"id"`
	Addr       string  `json:"addr"`
	Instance   string  `json:"instance,omitempty"`
	Static     bool    `json:"static"`
	Alive      bool    `json:"alive"`
	Down       bool    `json:"down,omitempty"` // heartbeat-demoted (hysteresis), awaiting a hit streak
	Gray       bool    `json:"gray,omitempty"` // health below the gray threshold; rendezvous-demoted
	Health     float64 `json:"health"`
	Breaker    string  `json:"breaker"`
	Jobs       int64   `json:"jobs"`
	Failures   int64   `json:"failures"`
	ProbeJobs  int64   `json:"probe_jobs"`
	LastSeenMS int64   `json:"last_seen_ms_ago"`
	QueueDepth int64   `json:"queue_depth"`
	ExecP50US  int64   `json:"exec_p50_us"`
	ExecP99US  int64   `json:"exec_p99_us"`
}

// info snapshots one member.
func (r *registry) info(m *member) MemberInfo {
	now := time.Now()
	m.mu.Lock()
	seenAgo := now.Sub(m.lastSeen)
	alive := m.aliveLocked(now, r.expire)
	down := m.hy.down
	instance := m.instance
	p50 := m.lat.quantile(0.50)
	p99 := m.lat.quantile(0.99)
	m.mu.Unlock()
	health := r.health.Score(m.id)
	return MemberInfo{
		ID:         m.id,
		Addr:       m.addr,
		Instance:   instance,
		Static:     m.static,
		Alive:      alive,
		Down:       down,
		Gray:       health < grayScore,
		Health:     health,
		Breaker:    m.brk.State().String(),
		Jobs:       m.jobs.Load(),
		Failures:   m.failures.Load(),
		ProbeJobs:  m.probeJobs.Load(),
		LastSeenMS: seenAgo.Milliseconds(),
		QueueDepth: m.queueDepth.Load(),
		ExecP50US:  p50,
		ExecP99US:  p99,
	}
}

// fleetLoad aggregates the worker-reported backpressure signals: total
// queued jobs, total devices, and the worst live exec P50 — the inputs to
// the fleet-level Retry-After.
func (r *registry) fleetLoad() (queueDepth, devices int, execP50us int64) {
	for _, m := range r.alive() {
		queueDepth += int(m.queueDepth.Load())
		devices += int(m.devices.Load())
		if p := m.execP50.Load(); p > execP50us {
			execP50us = p
		}
	}
	return queueDepth, devices, execP50us
}
