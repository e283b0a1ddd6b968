package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gcolor/internal/gpucolor"
	"gcolor/internal/simt"
)

// DeviceConfig describes one pool device. The zero value means "HD 7950
// defaults" for every field.
type DeviceConfig struct {
	// NumCUs, WavefrontWidth, WorkgroupSize mirror simt.Device; zero keeps
	// the simt.NewDevice default.
	NumCUs         int
	WavefrontWidth int
	WorkgroupSize  int
	// Workers bounds the host goroutines simulating the device. The pool
	// default divides GOMAXPROCS across devices so a fully busy pool does
	// not oversubscribe the host; set explicitly to override.
	Workers int
	// FaultRate > 0 arms a deterministic fault injector on the device with
	// the given per-event probability and FaultSeed (chaos serving).
	FaultRate float64
	FaultSeed uint64
	// FaultDisarmed attaches the injector disarmed: the device behaves as
	// fault-free until FaultInjector.Arm is called. The chaos soak uses
	// this to sicken a chosen device mid-run.
	FaultDisarmed bool
}

func (c DeviceConfig) build() *simt.Device {
	dev := simt.NewDevice()
	if c.NumCUs > 0 {
		dev.NumCUs = c.NumCUs
	}
	if c.WavefrontWidth > 0 {
		dev.WavefrontWidth = c.WavefrontWidth
	}
	if c.WorkgroupSize > 0 {
		dev.WorkgroupSize = c.WorkgroupSize
	}
	if c.Workers > 0 {
		dev.Workers = c.Workers
	}
	if c.FaultRate > 0 {
		seed := c.FaultSeed
		if seed == 0 {
			seed = 1
		}
		dev.Fault = simt.NewFaultInjector(seed, c.FaultRate)
		if c.FaultDisarmed {
			dev.Fault.Disarm()
		}
	}
	return dev
}

// DevicePool owns a fixed set of simulated devices and leases each to one
// job at a time. Lease selection is the pool's contribution to
// self-healing: among free devices whose circuit breaker is closed, the
// pool picks randomly weighted by health score, so a degraded-but-alive
// device sheds load in proportion to how sick it looks instead of flapping
// between fully-in and fully-out. Quarantined (breaker-open) devices are
// skipped entirely; half-open devices receive only sequential probe
// leases, which is how they earn re-admission. If every device in the pool
// is quarantined at once the pool fails open — the best-scored free device
// is leased anyway — because a self-inflicted total outage is strictly
// worse than serving from the least-bad device.
//
// Each device carries a persistent gpucolor.Runner: the lease holder runs
// jobs on Runner(), which keeps the device-arena buffers bound across
// jobs so steady-state serving does not allocate per request. Release
// scrubs the runner (poison over every held buffer) before the device
// goes back on the free list, so no job data survives into the next
// tenant's lease.
type DevicePool struct {
	devices []*simt.Device
	runners []*gpucolor.Runner
	busyNS  []atomic.Int64
	jobs    []atomic.Int64

	health   *FleetHealth
	breakers []*Breaker

	quarantines atomic.Int64 // breaker trips (entries into open)
	readmits    atomic.Int64 // probation completions (half-open → closed)
	probes      atomic.Int64 // probe leases issued
	probeFails  atomic.Int64 // probes that failed and re-opened the breaker

	mu     sync.Mutex
	free   []bool
	nfree  int
	rng    *rand.Rand
	notify chan struct{} // capacity 1; signaled on release
}

// NewDevicePool builds a pool from per-device configs (one device per
// entry) with default self-healing parameters (see SelfHealConfig). It
// panics on an empty config list: a pool with no devices is a programming
// error, not a runtime condition.
func NewDevicePool(cfgs []DeviceConfig) *DevicePool {
	if len(cfgs) == 0 {
		panic("serve: NewDevicePool with no device configs")
	}
	p := &DevicePool{
		devices: make([]*simt.Device, len(cfgs)),
		runners: make([]*gpucolor.Runner, len(cfgs)),
		busyNS:  make([]atomic.Int64, len(cfgs)),
		jobs:    make([]atomic.Int64, len(cfgs)),
		free:    make([]bool, len(cfgs)),
		nfree:   len(cfgs),
		rng:     rand.New(rand.NewSource(1)),
		notify:  make(chan struct{}, 1),
	}
	for i, cfg := range cfgs {
		p.devices[i] = cfg.build()
		p.runners[i] = gpucolor.NewRunner(p.devices[i])
		p.free[i] = true
	}
	p.configureSelfHeal(SelfHealConfig{})
	return p
}

// configureSelfHeal (re)builds the health tracker and breakers from cfg.
// Called by NewServer before any traffic; not safe once leases exist.
func (p *DevicePool) configureSelfHeal(cfg SelfHealConfig) {
	cfg = cfg.withDefaults()
	p.health = newFleetHealth(len(p.devices), cfg.Alpha)
	p.breakers = make([]*Breaker, len(p.devices))
	for i := range p.breakers {
		p.breakers[i] = newBreaker(cfg.breakerConfig(), nil)
	}
}

// UniformPool builds a pool of n identical devices from one config,
// defaulting each device's simulation workers so the whole pool together
// uses about GOMAXPROCS host goroutines.
func UniformPool(n int, cfg DeviceConfig) *DevicePool {
	if n < 1 {
		n = 1
	}
	if cfg.Workers == 0 {
		w := runtime.GOMAXPROCS(0) / n
		if w < 1 {
			w = 1
		}
		cfg.Workers = w
	}
	cfgs := make([]DeviceConfig, n)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return NewDevicePool(cfgs)
}

// Size returns the number of devices.
func (p *DevicePool) Size() int { return len(p.devices) }

// Lease is an exclusive claim on one pool device.
type Lease struct {
	pool     *DevicePool
	idx      int
	start    time.Time
	probe    bool
	observed atomic.Bool
	released atomic.Bool
}

// Device returns the leased device. The holder has exclusive use until
// Release.
func (l *Lease) Device() *simt.Device { return l.pool.devices[l.idx] }

// Runner returns the device's persistent coloring runner. The holder has
// exclusive use until Release; results are bit-identical to a transient
// gpucolor run but the warm arena makes them allocation-free.
func (l *Lease) Runner() *gpucolor.Runner { return l.pool.runners[l.idx] }

// Index returns the pool index of the leased device.
func (l *Lease) Index() int { return l.idx }

// Probe reports whether this is a probe lease on a half-open device.
func (l *Lease) Probe() bool { return l.probe }

// Observe folds the leased job's outcome into the device's health score
// and circuit breaker: the typed resilient outcome, the execution time
// (compared against the fleet median), and how many faults the device's
// injector fired during the run. Call before Release; at most one
// observation per lease is recorded.
func (l *Lease) Observe(kind gpucolor.OutcomeKind, exec time.Duration, faultsDelta int64) {
	if !l.observed.CompareAndSwap(false, true) {
		return
	}
	l.pool.observe(l.idx, l.probe, kind, exec, faultsDelta)
}

// Release returns the device to the pool and records its busy time.
// Release is idempotent. A probe lease released without an observation
// frees the breaker's probe slot without judging the device.
func (l *Lease) Release() {
	if !l.released.CompareAndSwap(false, true) {
		return
	}
	p := l.pool
	if l.probe && !l.observed.Load() {
		p.breakers[l.idx].ReleaseProbe()
	}
	p.runners[l.idx].Scrub()
	p.busyNS[l.idx].Add(int64(time.Since(l.start)))
	p.jobs[l.idx].Add(1)
	p.mu.Lock()
	p.free[l.idx] = true
	p.nfree++
	p.mu.Unlock()
	p.signal()
}

func (p *DevicePool) signal() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// observe implements Lease.Observe (see there).
func (p *DevicePool) observe(idx int, probe bool, kind gpucolor.OutcomeKind, exec time.Duration, faultsDelta int64) {
	reward, counts := outcomeReward(kind, faultsDelta)
	if probe {
		p.probes.Add(1)
		if !counts {
			// Canceled probe: neutral, just free the slot.
			p.breakers[idx].ReleaseProbe()
			return
		}
		p.health.Observe(idx, reward, exec)
		// A clean probe is one where the device itself produced a good
		// coloring; CPU fallback or any failure flunks probation.
		good := kind == gpucolor.OutcomeSuccess || kind == gpucolor.OutcomeRepaired
		tripped, readmitted := p.breakers[idx].RecordProbe(good)
		if tripped {
			p.probeFails.Add(1)
			p.quarantines.Add(1)
		}
		if readmitted {
			p.readmits.Add(1)
			p.health.Boost(idx, ProbationScore)
		}
		return
	}
	if !counts {
		return
	}
	score := p.health.Observe(idx, reward, exec)
	if p.breakers[idx].Record(reward > rewardFailure, score) {
		p.quarantines.Add(1)
	}
}

// lease wraps a claimed device index (already marked busy) in a Lease.
func (p *DevicePool) lease(idx int, probe bool) *Lease {
	return &Lease{pool: p, idx: idx, start: time.Now(), probe: probe}
}

// pickLocked selects a free device, marking it busy. Returns idx == -1
// when nothing is currently leasable (caller waits). Called with p.mu
// held. Selection order:
//
//  1. a half-open device with a free probe slot (probation traffic has
//     priority: re-admission needs a trickle of real jobs);
//  2. weighted-random among free closed-breaker devices, weight = health
//     score (floored so a sick-but-closed device is never starved into an
//     unfalsifiable zero);
//  3. fail-open: if *every* device in the pool is breaker-open, the
//     best-scored free device — total self-quarantine must not become a
//     total outage.
func (p *DevicePool) pickLocked(exclude int, probeOK bool) (idx int, probe bool) {
	if p.nfree == 0 {
		return -1, false
	}
	if probeOK {
		for i := range p.free {
			if !p.free[i] || i == exclude {
				continue
			}
			if p.breakers[i].State() != BreakerClosed && p.breakers[i].TryProbe() {
				p.claimLocked(i)
				return i, true
			}
		}
	}

	var total float64
	weights := make([]float64, len(p.free))
	for i := range p.free {
		if !p.free[i] || i == exclude {
			continue
		}
		if !p.breakers[i].Allow() {
			continue
		}
		w := p.health.Score(i)
		if w < 0.02 {
			w = 0.02
		}
		weights[i] = w
		total += w
	}
	if total > 0 {
		r := p.rng.Float64() * total
		for i, w := range weights {
			if w == 0 {
				continue
			}
			r -= w
			if r <= 0 {
				p.claimLocked(i)
				return i, false
			}
		}
	}

	// Fail-open only when the whole pool is dark: every device (free or
	// busy) has an open breaker and no probe slot was available.
	allOpen := true
	for i := range p.devices {
		if p.breakers[i].State() == BreakerClosed {
			allOpen = false
			break
		}
	}
	if allOpen {
		best := -1
		bestScore := -1.0
		for i := range p.free {
			if !p.free[i] || i == exclude {
				continue
			}
			if s := p.health.Score(i); s > bestScore {
				best, bestScore = i, s
			}
		}
		if best >= 0 {
			p.claimLocked(best)
			return best, false
		}
	}
	return -1, false
}

func (p *DevicePool) claimLocked(i int) {
	p.free[i] = false
	p.nfree--
	if p.nfree > 0 {
		// Other waiters may still have something to pick; cascade the wake.
		p.signal()
	}
}

// Acquire leases a free device, blocking until one is available or ctx is
// done. Selection is health-weighted and breaker-aware (see pickLocked).
func (p *DevicePool) Acquire(ctx context.Context) (*Lease, error) {
	return p.acquire(ctx, -1)
}

func (p *DevicePool) acquire(ctx context.Context, exclude int) (*Lease, error) {
	for {
		p.mu.Lock()
		idx, probe := p.pickLocked(exclude, true)
		p.mu.Unlock()
		if idx >= 0 {
			return p.lease(idx, probe), nil
		}
		// The open → half-open transition is time-based, so a waiter must
		// re-check periodically even without a release event.
		t := time.NewTimer(20 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("serve: device acquire: %w", ctx.Err())
		case <-p.notify:
			t.Stop()
		case <-t.C:
		}
	}
}

// TryAcquire leases a free device without blocking; ok is false when no
// device is currently leasable.
func (p *DevicePool) TryAcquire() (*Lease, bool) {
	p.mu.Lock()
	idx, probe := p.pickLocked(-1, true)
	p.mu.Unlock()
	if idx < 0 {
		return nil, false
	}
	return p.lease(idx, probe), true
}

// TryAcquireHealthy leases, without blocking, a free device other than
// exclude whose breaker is closed — the hedge path's requirement: a
// speculative re-dispatch onto a sick or probationary device would hedge
// the risk right back in.
func (p *DevicePool) TryAcquireHealthy(exclude int) (*Lease, bool) {
	p.mu.Lock()
	idx, _ := p.pickLocked(exclude, false)
	p.mu.Unlock()
	if idx < 0 {
		return nil, false
	}
	return p.lease(idx, false), true
}

// HealthScore returns device i's current EWMA health score in [0, 1].
func (p *DevicePool) HealthScore(i int) float64 { return p.health.Score(i) }

// BreakerState returns device i's circuit state.
func (p *DevicePool) BreakerState(i int) BreakerState { return p.breakers[i].State() }

// Quarantined returns the number of devices currently not closed
// (breaker open or half-open).
func (p *DevicePool) Quarantined() int {
	n := 0
	for i := range p.breakers {
		if p.breakers[i].State() != BreakerClosed {
			n++
		}
	}
	return n
}

// QuarantineCount returns the total number of breaker trips (entries into
// the open state) since the pool was built.
func (p *DevicePool) QuarantineCount() int64 { return p.quarantines.Load() }

// ReadmitCount returns the number of completed probations (half-open →
// closed re-admissions).
func (p *DevicePool) ReadmitCount() int64 { return p.readmits.Load() }

// ProbeCount returns the number of probe leases issued; ProbeFailCount the
// probes that failed and re-opened a breaker.
func (p *DevicePool) ProbeCount() int64     { return p.probes.Load() }
func (p *DevicePool) ProbeFailCount() int64 { return p.probeFails.Load() }

// FaultInjector returns device i's injector (nil when none is attached).
// Arm/Disarm on it are safe mid-run; everything else on the device remains
// owned by the pool's leases.
func (p *DevicePool) FaultInjector(i int) *simt.FaultInjector { return p.devices[i].Fault }

// ArenaStats sums the device arenas' counters across the pool: the
// steady-state serving evidence (Reuses growing, Allocs flat) for
// /metricsz.
func (p *DevicePool) ArenaStats() simt.ArenaStats {
	var total simt.ArenaStats
	for _, dev := range p.devices {
		st := dev.ArenaStats()
		total.Allocs += st.Allocs
		total.Reuses += st.Reuses
		total.Releases += st.Releases
		total.PooledBufs += st.PooledBufs
		total.PooledBytes += st.PooledBytes
	}
	return total
}

// BusyNanos returns the cumulative leased time of device i in nanoseconds
// (completed leases only).
func (p *DevicePool) BusyNanos(i int) int64 { return p.busyNS[i].Load() }

// Jobs returns the number of completed leases of device i.
func (p *DevicePool) Jobs(i int) int64 { return p.jobs[i].Load() }

// Utilization returns the pool-wide fraction of elapsed wall time the
// devices spent leased, given the pool's age.
func (p *DevicePool) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	var busy int64
	for i := range p.busyNS {
		busy += p.busyNS[i].Load()
	}
	return float64(busy) / (float64(len(p.devices)) * float64(elapsed))
}
