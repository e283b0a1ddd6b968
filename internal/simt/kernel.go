package simt

import (
	"sync"
	"sync/atomic"
)

// KernelFunc is the body of a data-parallel kernel, invoked once per
// work-item. Bodies must be safe to run concurrently across workgroups and
// must not depend on inter-group execution order except through atomics.
type KernelFunc func(c *Ctx)

// KernelStats aggregates the simulated activity of one kernel launch.
type KernelStats struct {
	Name   string
	Items  int // work-items launched
	Groups int // workgroups launched

	// GroupCost[g] is the simulated cycles of workgroup g (the input to the
	// scheduling simulation); WavefrontCost lists every wavefront's cycles
	// (the paper's intra-kernel imbalance evidence).
	GroupCost     []int64
	WavefrontCost []int64

	// Utilization accounting: per wavefront, busySum counts lane-operations
	// actually performed and busyMax the busiest lane; utilization is
	// busySum / (width * busyMax) summed over wavefronts.
	laneBusySum    int64
	laneBusyMaxSum int64
	width          int

	ALUOps          int64
	MemAccesses     int64
	MemTransactions int64
	Atomics         int64
	Barriers        int64
	Collectives     int64
	LDSAccesses     int64
	CacheHits       int64
}

// SIMDUtilization returns the fraction of lane slots doing useful work,
// in (0, 1]; 0 for an empty kernel.
func (s *KernelStats) SIMDUtilization() float64 {
	if s.laneBusyMaxSum == 0 {
		return 0
	}
	return float64(s.laneBusySum) / float64(int64(s.width)*s.laneBusyMaxSum)
}

// BusyParts exposes the utilization accounting so callers can aggregate
// utilization across kernel launches: busy is the lane-operations performed,
// busyMax the per-wavefront busiest-lane total; the aggregate utilization of
// launches is sum(busy) / (width * sum(busyMax)).
func (s *KernelStats) BusyParts() (busy, busyMax int64) {
	return s.laneBusySum, s.laneBusyMaxSum
}

// Width returns the wavefront width the stats were collected under.
func (s *KernelStats) Width() int { return s.width }

// TotalCost returns the sum of all workgroup costs (the work, as opposed to
// the makespan, which depends on scheduling).
func (s *KernelStats) TotalCost() int64 {
	var t int64
	for _, c := range s.GroupCost {
		t += c
	}
	return t
}

func (s *KernelStats) addWavefront(c wfCost) {
	s.WavefrontCost = append(s.WavefrontCost, c.cycles)
	s.laneBusySum += c.busySum
	s.laneBusyMaxSum += c.busyMax
	s.ALUOps += c.aluOps
	s.MemAccesses += c.accesses
	s.MemTransactions += c.transactions
	s.Atomics += c.atomics
	s.LDSAccesses += c.ldsAccesses
	s.CacheHits += c.cacheHits
}

// merge folds worker-local stats into s (group-indexed slices are written
// in place by group id, so only scalars and wavefront lists merge here).
func (s *KernelStats) merge(o *KernelStats) {
	s.WavefrontCost = append(s.WavefrontCost, o.WavefrontCost...)
	s.laneBusySum += o.laneBusySum
	s.laneBusyMaxSum += o.laneBusyMaxSum
	s.ALUOps += o.ALUOps
	s.MemAccesses += o.MemAccesses
	s.MemTransactions += o.MemTransactions
	s.Atomics += o.Atomics
	s.Barriers += o.Barriers
	s.Collectives += o.Collectives
	s.LDSAccesses += o.LDSAccesses
	s.CacheHits += o.CacheHits
}

// RunResult pairs a kernel's activity stats with its scheduling outcome.
type RunResult struct {
	Stats KernelStats
	Sched ScheduleResult
}

// Cycles returns the simulated end-to-end kernel time (makespan plus launch
// overhead).
func (r *RunResult) Cycles() int64 { return r.Sched.Cycles }

// Run executes a data-parallel kernel over items work-items using the
// device's workgroup size and scheduling policy.
//
// The returned RunResult (and its slices) come from per-device pools;
// callers that fold the numbers into their own accounting can hand the
// result back with Device.Recycle to make steady-state launches
// allocation-free. Callers that retain results just keep them and the GC
// takes over, exactly as before.
func (d *Device) Run(name string, items int, f KernelFunc) *RunResult {
	return d.run(name, items, f, false)
}

// RunOrdered is Run with phase A on one worker, so workgroups execute in
// index order whatever the host parallelism. A kernel whose atomic return
// values pick store addresses or owners, such as an atomic-append
// worklist or a compare-and-swap claim, must use it: on several workers
// the groups interleave, the atomics hand out different values, and the
// costed accesses, hence the simulated cycles, vary from run to run.
func (d *Device) RunOrdered(name string, items int, f KernelFunc) *RunResult {
	return d.run(name, items, f, true)
}

func (d *Device) run(name string, items int, f KernelFunc, ordered bool) *RunResult {
	rr := d.getRunResult()
	d.execGroups(&rr.Stats, name, items, d.launches.Add(1), f, ordered)
	rr.Sched = SimulateSchedule(d, rr.Stats.GroupCost, d.Policy)
	return rr
}

// launchState carries one launch's shared state between the phase-A
// workers, avoiding a per-launch closure and channel.
type launchState struct {
	d      *Device
	stats  *KernelStats
	items  int
	launch uint64
	f      KernelFunc
	next   atomic.Int64 // workgroup grab cursor
	mu     sync.Mutex
	wgrp   sync.WaitGroup
}

func (st *launchState) work() {
	defer st.wgrp.Done()
	d := st.d
	ws := d.getWorkerScratch(1)
	acc, cache, local := ws.wfs[0], ws.cache, &ws.local
	groups := st.stats.Groups
	for {
		g := int(st.next.Add(1)) - 1
		if g >= groups {
			break
		}
		cache.reset()
		cost := d.execOneGroupSafe(g, st.items, st.launch, st.f, acc, cache, local)
		if fi := d.Fault; fi != nil && fi.stallGroup(st.launch, int32(g)) {
			cost *= fi.stallFactor()
		}
		st.stats.GroupCost[g] = cost
	}
	st.mu.Lock()
	st.stats.merge(local)
	st.mu.Unlock()
	d.putWorkerScratch(ws)
}

// execGroups is phase A: execute every workgroup, recording costs into
// stats (which is overwritten), in index order on one worker if ordered.
func (d *Device) execGroups(stats *KernelStats, name string, items int, launch uint64, f KernelFunc, ordered bool) {
	d.check()
	wg := d.WorkgroupSize
	width := d.WavefrontWidth
	groups := (items + wg - 1) / wg
	*stats = KernelStats{
		Name:      name,
		Items:     items,
		Groups:    groups,
		GroupCost: d.i64s.get(groups),
		width:     width,
	}
	if groups == 0 {
		return
	}
	// Every wavefront contributes one WavefrontCost entry; pre-sizing the
	// slice keeps the worker merges from reallocating it.
	stats.WavefrontCost = d.i64s.getCap((items + width - 1) / width)

	workers := d.workers(ordered)
	if workers > groups {
		workers = groups
	}
	st, _ := d.launchSt.Get().(*launchState)
	if st == nil {
		st = &launchState{}
	}
	st.d, st.stats, st.items, st.launch, st.f = d, stats, items, launch, f
	st.next.Store(0)
	st.wgrp.Add(workers)
	for w := 1; w < workers; w++ {
		go st.work()
	}
	st.work() // the caller is worker 0
	st.wgrp.Wait()
	st.stats, st.f = nil, nil
	d.launchSt.Put(st)
}

// execOneGroupSafe dispatches to execOneGroup; with a fault injector armed
// it additionally absorbs kernel-body panics (corrupted data can produce
// negative slice lengths and the like), recording the group as aborted.
// The named return keeps whatever cost had accumulated at zero — the
// panicked group simply contributes no further work, deterministically.
func (d *Device) execOneGroupSafe(g, items int, launch uint64, f KernelFunc, acc *wfAcc, cache *segCache, local *KernelStats) (cost int64) {
	if fi := d.Fault; fi != nil {
		defer func() {
			if r := recover(); r != nil {
				fi.notePanic()
				cost = 0
			}
		}()
	}
	return d.execOneGroup(g, items, launch, f, acc, cache, local)
}

// execOneGroup runs workgroup g's work-items lane by lane, wavefront by
// wavefront, and returns the group's simulated cost.
func (d *Device) execOneGroup(g, items int, launch uint64, f KernelFunc, acc *wfAcc, cache *segCache, local *KernelStats) int64 {
	wg := d.WorkgroupSize
	width := d.WavefrontWidth
	base := g * wg
	var groupCost int64
	for wfStart := 0; wfStart < wg; wfStart += width {
		if base+wfStart >= items {
			break // whole wavefront past the grid tail
		}
		if fi := d.Fault; fi != nil && fi.abortWavefront(launch, int32(g), int32(wfStart/width)) {
			continue // wavefront killed: no work, no writes
		}
		acc.reset()
		// One reusable Ctx per wavefront accumulator, rebuilt per lane by
		// field assignment: per-work-item Ctx values would escape into the
		// (unknown) kernel body and dominate heap allocations.
		c := &acc.ctx
		c.cm, c.wf, c.fi, c.launch = &d.Cost, acc, d.Fault, launch
		for l := 0; l < width; l++ {
			gid := base + wfStart + l
			if gid >= items {
				break
			}
			acc.lanes[l].active = true
			c.Global, c.Local, c.Group, c.laneIdx = int32(gid), int32(wfStart+l), int32(g), l
			f(c)
		}
		wc := acc.cost(&d.Cost, cache)
		groupCost += wc.cycles
		local.addWavefront(wc)
	}
	return groupCost
}
