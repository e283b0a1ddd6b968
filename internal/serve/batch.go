package serve

import (
	"errors"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
)

// This file is the block-diagonal kernel batching engine: the small-graph
// counterpart to sharding. Sharding splits one big graph across several
// devices; batching fuses several small graphs into one device launch.
// A worker that dequeues a batch-eligible job gathers compatible queued
// jobs (same algorithm/threshold/policy/fused class — seeds may differ),
// concatenates their CSRs into a disjoint union, and colors the union in
// a single run through one pooled runner with a per-member priority
// segment carrying each member's own seed. Because the union has no
// cross-member arcs and every kernel's decisions are component-local
// given the priorities, each member's slice of the union coloring is
// bit-identical to the solo run it replaces (gpucolor's batch tests pin
// this); splitting the result is a slice copy, not a repair problem.
//
// The launch-count arithmetic is the point: K queued small graphs cost K
// full kernel-ladder executions solo but one execution batched, and the
// simulated device's per-launch overhead (kernel setup, priority fill,
// worklist management) amortizes across members exactly the way the
// paper's kernel-fusion argument amortizes launch overhead across
// phases.

// batchEligible reports whether j may join a fused launch: single-device
// (below the shard auto thresholds), within the per-member size caps, and
// not carrying a per-job cycle budget (the fused run is one plain launch;
// a budgeted job's accounting would be meaningless against batch cycles).
func (s *Server) batchEligible(j *job) bool {
	c := s.cfg.Batch
	if c.Disabled || c.MaxJobs < 2 {
		return false
	}
	if j.shards != 1 || j.req.CycleBudget > 0 {
		return false
	}
	g := j.req.Graph
	return g.NumVertices() <= c.MaxVertices && g.NumEdges()*2 <= c.MaxEdges
}

// batchClass folds the request knobs that every member of a fused launch
// must share. Seed is deliberately absent — per-member seeds ride in the
// priority segments — and so are MaxRetries/NoCPUFallback, which only
// matter on the solo-retry path, where each member's own values apply.
func batchClass(r *Request) uint64 {
	k := uint64(0x517cc1b727220a95)
	mix := func(v uint64) {
		k ^= v
		k *= 0x100000001b3
	}
	mix(uint64(r.Algorithm))
	mix(uint64(gpucolor.NormalizeHybridThreshold(r.HybridThreshold)))
	mix(uint64(r.Policy))
	if r.Fused {
		mix(1)
	} else {
		mix(2)
	}
	return k
}

// gatherBatch assembles a batch around a freshly popped job: nil/solo when
// the seed job is ineligible or no compatible work is queued, otherwise
// the member list (seed first, then queue order). Expired jobs swept up by
// the gather are failed exactly as pop would have failed them.
func (s *Server) gatherBatch(seed *job) []*job {
	if !s.batchEligible(seed) {
		return nil
	}
	c := s.cfg.Batch
	class := batchClass(seed.req)
	members := []*job{seed}
	verts := seed.req.Graph.NumVertices()
	arcs := seed.req.Graph.NumEdges() * 2
	accept := func(j *job) bool {
		if len(members) >= c.MaxJobs {
			return false
		}
		if !s.batchEligible(j) || batchClass(j.req) != class {
			return false
		}
		nv, na := j.req.Graph.NumVertices(), j.req.Graph.NumEdges()*2
		if verts+nv > c.MaxVertices || arcs+na > c.MaxEdges {
			return false
		}
		members = append(members, j)
		verts += nv
		arcs += na
		return true
	}
	_, expired := s.queue.gather(accept)
	for _, ej := range expired {
		s.expireJob(ej)
	}
	if len(members) == 1 && c.Linger > 0 {
		// Lone eligible job with lingering enabled: give company a bounded
		// chance to arrive before committing to a solo run.
		time.Sleep(c.Linger)
		s.reg.Histogram("batch_linger_us").Add(c.Linger.Microseconds())
		_, expired = s.queue.gather(accept)
		for _, ej := range expired {
			s.expireJob(ej)
		}
	}
	if len(members) > 1 {
		s.reg.Gauge("queue_depth").Set(int64(s.queue.depth()))
	}
	return members
}

// runBatch executes one fused launch: concatenate the members into a
// block-diagonal union, color it once on one leased device with
// per-member priority segments, split the verified coloring back into
// per-member responses, and settle every member — grouped journal
// completions (one fsync), per-member cache and idempotency entries
// under each member's own solo key (so a batched result serves future
// solo requests of the same graph), every waiter released exactly once.
// A member that fails verification retries solo through the full
// resilient path; the others are unaffected.
func (s *Server) runBatch(members []*job) {
	s.reg.Counter("batches_total").Inc()
	s.reg.Counter("batched_jobs_total").Add(int64(len(members)))
	s.reg.Histogram("batch_size").Add(int64(len(members)))

	waits := make([]time.Duration, len(members))
	graphs := make([]*graph.Graph, len(members))
	for i, j := range members {
		waits[i] = time.Since(j.enqueued)
		s.reg.Histogram("wait_us").Add(waits[i].Microseconds())
	}
	for i, j := range members {
		graphs[i] = j.req.Graph
	}
	union, starts := graph.ConcatDisjoint(graphs...)
	segs := make([]gpucolor.PrioritySegment, len(members))
	for i, j := range members {
		segs[i] = gpucolor.PrioritySegment{Start: starts[i], End: starts[i+1], Seed: j.req.Seed}
	}
	head := members[0].req

	lease, err := s.pool.acquire(s.baseCtx, -1)
	if err != nil {
		// Pool gone (shutdown): fail everyone with the acquire error.
		for _, j := range members {
			s.failJob(j, &acquireError{err: err})
		}
		return
	}
	busy := s.reg.Gauge("devices_busy")
	busy.Add(1)
	dev := lease.Device()
	dev.Policy = head.Policy
	var faultsBefore int64
	if dev.Fault != nil {
		faultsBefore = dev.Fault.Stats().Injected()
	}
	opt := gpucolor.Options{
		HybridThreshold:  head.HybridThreshold,
		Fused:            head.Fused,
		PrioritySegments: segs,
	}
	start := time.Now()
	res, runErr := lease.Runner().Color(union, head.Algorithm, opt)
	exec := time.Since(start)
	if s.batchRunHook != nil {
		res, runErr = s.batchRunHook(union, starts, res, runErr)
	}
	var faultsDelta int64
	if dev.Fault != nil {
		faultsDelta = dev.Fault.Stats().Injected() - faultsBefore
	}
	kind := gpucolor.OutcomeSuccess
	if runErr != nil {
		kind = gpucolor.Classify(nil, runErr)
	}
	lease.Observe(kind, exec, faultsDelta)
	busy.Add(-1)
	device := lease.Index()
	lease.Release()
	s.reg.Histogram("exec_us").Add(exec.Microseconds())
	// The batch exec is deliberately not fed into the hedge tracker: its
	// tail estimate calibrates solo dispatches, and a fused launch is
	// structurally longer than the solo jobs it replaces.

	// Decide per member. On a clean run the union coloring is verified as
	// a whole, which implies every block is proper. On an invalid-coloring
	// failure the partial result is salvaged per member: blocks that
	// verify finish from the batch, the rest retry solo. Any other failure
	// retries everyone solo — the members lose nothing but the latency of
	// the failed fused attempt.
	var partial []int32
	var ice *gpucolor.InvalidColoringError
	switch {
	case runErr == nil:
		partial = res.Colors
	case errors.As(runErr, &ice) && ice.Result != nil && len(ice.Result.Colors) == union.NumVertices():
		partial = ice.Result.Colors
	}

	finished := make([]*flight, 0, len(members))
	resps := make([]*Response, 0, len(members))
	var retries []*job
	var retryWaits []time.Duration
	for i, j := range members {
		var sub []int32
		if partial != nil {
			sub = partial[starts[i]:starts[i+1]]
		}
		if sub == nil || (runErr != nil && color.Verify(graphs[i], sub) != nil) {
			retries = append(retries, j)
			retryWaits = append(retryWaits, waits[i])
			continue
		}
		colors := make([]int32, len(sub))
		copy(colors, sub)
		r := res
		if ice != nil {
			r = ice.Result
		}
		resps = append(resps, &Response{
			Fingerprint: j.fp,
			Colors:      colors,
			NumColors:   distinctColors(colors),
			Cycles:      r.Cycles,
			Iterations:  r.Iterations,
			Batched:     true,
			BatchSize:   len(members),
			Shards:      1,
			Device:      device,
			Wait:        waits[i],
			Exec:        exec,
		})
		finished = append(finished, j.fl)
	}
	s.reg.Counter("completed_total").Add(int64(len(finished)))
	s.front.finishBatch(finished, resps)
	for i, j := range retries {
		s.reg.Counter("batch_member_retries_total").Inc()
		s.runJob(j, retryWaits[i])
	}
}

// distinctColors counts the distinct colors in use, matching the solo
// path's Result.NumColors semantics (distinct count, not max+1).
func distinctColors(colors []int32) int {
	maxc := int32(-1)
	for _, c := range colors {
		if c > maxc {
			maxc = c
		}
	}
	if maxc < 0 {
		return 0
	}
	seen := make([]bool, maxc+1)
	n := 0
	for _, c := range colors {
		if c >= 0 && !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n
}
