package simt

// Data-oblivious cooperative launches. Some kernels touch the same
// addresses and take the same branches whatever values they read: a
// Blelloch block scan's group, say, depends only on how many of its items
// are live. Re-simulating such a group lane by lane buys nothing, because
// its cost is a function of that shape alone. RunCoopOblivious simulates
// each shape once, records what the group added to its launch, and
// replays the record for every later group of the same shape, while the
// caller writes the group's outputs directly on the host.

// ShapeMemo remembers what one data-oblivious workgroup of each shape cost
// (see RunCoopOblivious). Records are only valid for the geometry and cost
// model they were simulated under; a memo meeting a device that differs in
// either starts over. The zero value is empty and ready to use. A memo
// belongs to one kernel body and must not be used concurrently.
type ShapeMemo struct {
	width, size int
	cost        CostModel
	recs        []*shapeRecord // indexed by shape, WorkgroupSize+1 slots
}

// shapeRecord is one simulated workgroup: its cost and the stats it added
// to its launch (wavefront costs, operation counters, barriers and
// collectives).
type shapeRecord struct {
	cost  int64
	stats KernelStats
}

// fit clears the memo unless its records were made on d's geometry and
// cost model.
func (m *ShapeMemo) fit(d *Device) {
	if m.recs != nil && m.width == d.WavefrontWidth && m.size == d.WorkgroupSize && m.cost == d.Cost {
		return
	}
	m.width, m.size, m.cost = d.WavefrontWidth, d.WorkgroupSize, d.Cost
	m.recs = make([]*shapeRecord, d.WorkgroupSize+1)
}

// RunCoopOblivious is RunCoop for kernels whose workgroups are
// data-oblivious: group g's control flow and every address it touches are
// a function of shape(g), in [0, WorkgroupSize], never of the values it
// reads. The first group of each shape missing from memo runs f and is
// recorded; every other group is costed from its shape's record and has
// its outputs written by host(g), which must write exactly what f would.
// Stats and schedule are bit-identical to RunCoop's, except that
// WavefrontCost lists groups in id order whatever the worker count.
//
// Two conditions fall back to RunCoop, because a group's cost can then
// vary within a shape: a fault injector attached (armed or not — faults
// are keyed by group and lane, and its permissive mode changes what a
// group does), and a WorkgroupSize that is not a multiple of
// SegmentElems, where groups start at different offsets within a memory
// segment and so coalesce differently. Either way the launch counter
// advances exactly as RunCoop's does.
func (d *Device) RunCoopOblivious(name string, groups int, memo *ShapeMemo, shape func(g int32) int, host func(g int32), f CoopFunc) *RunResult {
	if se := int(d.Cost.SegmentElems); d.Fault != nil || se < 1 || d.WorkgroupSize%se != 0 {
		return d.RunCoop(name, groups, f)
	}
	rr := d.getRunResult()
	launch := d.launches.Add(1)
	stats := &rr.Stats
	d.initCoopStats(stats, name, groups)
	memo.fit(d)
	size := d.WorkgroupSize
	nWfs := size / d.WavefrontWidth
	var ws *workerScratch
	for g := 0; g < groups; g++ {
		s := shape(int32(g))
		rec := memo.recs[s]
		if rec == nil {
			if ws == nil {
				ws = d.getWorkerScratch(nWfs)
			}
			rec = &shapeRecord{stats: KernelStats{width: d.WavefrontWidth}}
			gc := ws.beginGroup(d, g, size, nWfs, launch)
			rec.cost = d.execCoopGroup(gc, launch, f, ws.cache, &rec.stats)
			memo.recs[s] = rec
		} else {
			host(int32(g))
		}
		stats.GroupCost[g] = rec.cost
		stats.merge(&rec.stats)
	}
	if ws != nil {
		d.putWorkerScratch(ws)
	}
	rr.Sched = SimulateSchedule(d, stats.GroupCost, d.Policy)
	return rr
}
