package simt

import (
	"sync"
	"sync/atomic"
)

// CoopFunc is the body of a cooperative kernel: it is invoked once per
// workgroup, and the whole workgroup processes one task together (the
// paper's workgroup-per-vertex kernels). Work is distributed over lanes via
// the GroupCtx collectives below.
type CoopFunc func(g *GroupCtx)

// GroupCtx is a workgroup's view of the device inside a cooperative kernel.
type GroupCtx struct {
	id     int32
	size   int
	width  int
	cm     *CostModel
	wfs    []*wfAcc
	fi     *FaultInjector
	launch uint64
	lds    *ldsArena // worker-owned LDS backing store, reset per group

	extraCost   int64 // barrier + collective charges
	barriers    int64
	collectives int64

	// ctx is the single lane context handed to kernel bodies. beginGroup
	// sets the fields that are constant for the group and ctxFor the
	// per-lane ones. Sharing one keeps the per-lane dispatch
	// allocation-free; bodies must not retain it past their invocation
	// (the documented Ctx contract).
	ctx Ctx
}

// ID returns the workgroup id (which cooperative kernels use as the task
// id, e.g. the vertex this group processes).
func (g *GroupCtx) ID() int32 { return g.id }

// Size returns the number of work-items in the group.
func (g *GroupCtx) Size() int { return g.size }

func (g *GroupCtx) ctxFor(lane int) *Ctx {
	wf := g.wfs[lane/g.width]
	l := lane % g.width
	wf.lanes[l].active = true
	c := &g.ctx
	c.Global = g.id*int32(g.size) + int32(lane)
	c.Local = int32(lane)
	c.wf, c.laneIdx = wf, l
	return c
}

// ForEach runs body for every i in [0, n), striding the iterations across
// the group's work-items in chunks of Size() — the canonical cooperative
// loop over a vertex's neighbour list.
func (g *GroupCtx) ForEach(n int32, body func(c *Ctx, i int32)) {
	for chunk := int32(0); chunk < n; chunk += int32(g.size) {
		for lane := 0; lane < g.size && chunk+int32(lane) < n; lane++ {
			body(g.ctxFor(lane), chunk+int32(lane))
		}
	}
}

// Any evaluates pred over [0, n) cooperatively and reports whether any
// invocation returned true. After each chunk of Size() items the group
// reduces its verdict (one collective per wavefront plus a barrier) and
// exits early on success, modelling the ballot-and-break idiom.
func (g *GroupCtx) Any(n int32, pred func(c *Ctx, i int32) bool) bool {
	for chunk := int32(0); chunk < n; chunk += int32(g.size) {
		found := false
		for lane := 0; lane < g.size && chunk+int32(lane) < n; lane++ {
			if pred(g.ctxFor(lane), chunk+int32(lane)) {
				found = true
			}
		}
		g.reduceCharge(chunk, n)
		if found {
			return true
		}
	}
	return false
}

// reduceCharge accounts a chunk-wide reduction: one collective per wavefront
// that had live lanes in this chunk, plus one barrier across the group.
func (g *GroupCtx) reduceCharge(chunk, n int32) {
	live := n - chunk
	if live > int32(g.size) {
		live = int32(g.size)
	}
	wfsLive := (int(live) + g.width - 1) / g.width
	g.extraCost += int64(wfsLive)*g.cm.Collective + g.cm.Barrier
	g.collectives += int64(wfsLive)
	g.barriers++
}

// One runs body on lane 0 only (the "if (tid == 0)" idiom).
func (g *GroupCtx) One(body func(c *Ctx)) {
	body(g.ctxFor(0))
}

// Barrier charges a workgroup barrier.
func (g *GroupCtx) Barrier() {
	g.extraCost += g.cm.Barrier * int64(len(g.wfs))
	g.barriers++
}

// RunCoop executes a cooperative kernel with the given number of workgroups,
// each of the device's workgroup size. Like Run, the result comes from the
// device pools and may be handed back with Device.Recycle.
func (d *Device) RunCoop(name string, groups int, f CoopFunc) *RunResult {
	return d.runCoop(name, groups, f, false)
}

// RunCoopOrdered is RunCoop with workgroups executed in index order on
// one worker, for the reason RunOrdered gives.
func (d *Device) RunCoopOrdered(name string, groups int, f CoopFunc) *RunResult {
	return d.runCoop(name, groups, f, true)
}

func (d *Device) runCoop(name string, groups int, f CoopFunc, ordered bool) *RunResult {
	rr := d.getRunResult()
	d.execCoopGroups(&rr.Stats, name, groups, d.launches.Add(1), f, ordered)
	rr.Sched = SimulateSchedule(d, rr.Stats.GroupCost, d.Policy)
	return rr
}

// coopLaunchState mirrors launchState for cooperative kernels.
type coopLaunchState struct {
	d      *Device
	stats  *KernelStats
	size   int
	nWfs   int
	launch uint64
	f      CoopFunc
	next   atomic.Int64
	mu     sync.Mutex
	wgrp   sync.WaitGroup
}

func (st *coopLaunchState) work() {
	defer st.wgrp.Done()
	d := st.d
	ws := d.getWorkerScratch(st.nWfs)
	groups := st.stats.Groups
	for {
		gi := int(st.next.Add(1)) - 1
		if gi >= groups {
			break
		}
		gc := ws.beginGroup(d, gi, st.size, st.nWfs, st.launch)
		cost := d.execCoopGroup(gc, st.launch, st.f, ws.cache, &ws.local)
		if fi := d.Fault; fi != nil && fi.stallGroup(st.launch, gc.id) {
			cost *= fi.stallFactor()
		}
		st.stats.GroupCost[gi] = cost
	}
	st.mu.Lock()
	st.stats.merge(&ws.local)
	st.mu.Unlock()
	d.putWorkerScratch(ws)
}

// beginGroup readies the worker scratch for cooperative workgroup gi: a
// fresh segment cache, wavefront accumulators and LDS, and a GroupCtx
// whose lane context already holds the fields that are constant for the
// group. The GroupCtx lives in the worker scratch and is rebuilt per group
// by assignment: a stack value would escape into the kernel body and
// allocate per group.
func (ws *workerScratch) beginGroup(d *Device, gi, size, nWfs int, launch uint64) *GroupCtx {
	wfs := ws.wfs[:nWfs]
	ws.cache.reset()
	for _, wf := range wfs {
		wf.reset()
	}
	ws.lds.reset()
	gc := &ws.gctx
	*gc = GroupCtx{
		id:     int32(gi),
		size:   size,
		width:  ws.width,
		cm:     &d.Cost,
		wfs:    wfs,
		fi:     d.Fault,
		launch: launch,
		lds:    &ws.lds,
	}
	c := &gc.ctx
	c.Group, c.cm, c.fi, c.launch = gc.id, gc.cm, gc.fi, launch
	return gc
}

func (d *Device) execCoopGroups(stats *KernelStats, name string, groups int, launch uint64, f CoopFunc, ordered bool) {
	d.initCoopStats(stats, name, groups)
	if groups == 0 {
		return
	}
	size := d.WorkgroupSize
	nWfs := size / d.WavefrontWidth
	workers := d.workers(ordered)
	if workers > groups {
		workers = groups
	}
	st, _ := d.coopSt.Get().(*coopLaunchState)
	if st == nil {
		st = &coopLaunchState{}
	}
	st.d, st.stats, st.size, st.nWfs, st.launch, st.f = d, stats, size, nWfs, launch, f
	st.next.Store(0)
	st.wgrp.Add(workers)
	for w := 1; w < workers; w++ {
		go st.work()
	}
	st.work()
	st.wgrp.Wait()
	st.stats, st.f = nil, nil
	d.coopSt.Put(st)
}

// initCoopStats resets stats for a cooperative launch of groups
// workgroups, with the per-group and per-wavefront slices drawn from the
// device pools.
func (d *Device) initCoopStats(stats *KernelStats, name string, groups int) {
	d.check()
	*stats = KernelStats{
		Name:      name,
		Items:     groups * d.WorkgroupSize,
		Groups:    groups,
		GroupCost: d.i64s.get(groups),
		width:     d.WavefrontWidth,
	}
	if groups > 0 {
		stats.WavefrontCost = d.i64s.getCap(groups * (d.WorkgroupSize / d.WavefrontWidth))
	}
}

// execCoopGroup runs one cooperative workgroup and costs it out. With a
// fault injector armed, the whole group may be aborted before executing
// (the cooperative analogue of a wavefront abort — the group owns one
// task, so killing part of it is indistinguishable from killing it all),
// and kernel-body panics on corrupted data are absorbed as group panics.
func (d *Device) execCoopGroup(gc *GroupCtx, launch uint64, f CoopFunc, cache *segCache, local *KernelStats) (cost int64) {
	if fi := d.Fault; fi != nil {
		if fi.abortWavefront(launch, gc.id, 0) {
			return 0
		}
		defer func() {
			if r := recover(); r != nil {
				fi.notePanic()
				cost = 0
			}
		}()
	}
	f(gc)
	for _, wf := range gc.wfs {
		wc := wf.cost(&d.Cost, cache)
		cost += wc.cycles
		local.addWavefront(wc)
	}
	cost += gc.extraCost
	local.Barriers += gc.barriers
	local.Collectives += gc.collectives
	return cost
}
