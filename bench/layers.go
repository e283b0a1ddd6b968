package main

import (
	"fmt"
	"os"
	"time"

	"gcolor/internal/journal"
)

// perLayer lists every -trace 1 metric with its unit. A layer that does
// not run on a workload reports 0.
var perLayer = [][2]string{
	{"graph.decode_us", "us"}, {"graph.fingerprint_us", "us"}, {"graph.apply_delta_us", "us"},
	{"graph.upload_bytes", "bytes"},
	{"serve.front_us", "us"}, {"serve.encode_us", "us"},
	{"serve.queue_wait_us_p50", "us"}, {"serve.queue_wait_us_p90", "us"}, {"serve.exec_us", "us"},
	{"serve.device_busy", "fraction"}, {"serve.cache_hit_ratio", "fraction"},
	{"serve.coalesced", "count"}, {"serve.idem_replays", "count"}, {"serve.batched_jobs", "count"},
	{"serve.refused", "count"}, {"serve.hedges", "count"}, {"serve.delta_hit_ratio", "fraction"}, {"serve.frontier_size", "vertices"},
	{"serve.allocs_per_request", "allocs"},
	{"gpucolor.color_us", "us"}, {"gpucolor.iterations", "count"}, {"gpucolor.attempts", "count"},
	{"simt.lane_ops", "ops"}, {"simt.bytes_moved", "bytes"}, {"simt.simd_util", "fraction"},
	{"simt.host_ns_per_lane_op", "ns"},
	{"color.verify_us", "us"}, {"color.recolor_frontier_us", "us"}, {"color.recolored", "vertices"},
	{"shard.jobs", "count"}, {"shard.conflicts", "count"}, {"shard.repair_rounds", "count"},
	{"shard.recolored", "count"}, {"shard.color_us", "us"},
	{"journal.appends", "count"}, {"journal.append_bytes", "bytes"}, {"journal.fsyncs", "count"},
	{"journal.append_us", "us"},
	{"cluster.routed", "count"}, {"cluster.scattered", "count"}, {"cluster.cache_hit_ratio", "fraction"},
	{"cluster.hop_us", "us"}, {"cluster.retries", "count"},
	{"self_share.client", "fraction"}, {"self_share.graph", "fraction"}, {"self_share.serve", "fraction"},
	{"self_share.queue", "fraction"}, {"self_share.device", "fraction"}, {"self_share.color", "fraction"},
	{"self_share.cluster", "fraction"},
	{"trace.top_self_share", "fraction"}, {"trace.rps_ratio", "ratio"}, {"trace.p50_ratio", "ratio"},
	{"trace.spans_per_request", "count"}, {"trace.cycle_drift", "count"}, {"replay.mismatches", "count"},
}

func perLayerNames() []string {
	names := make([]string, len(perLayer))
	for i, m := range perLayer {
		names[i] = m[0]
	}
	return names
}

// countersOf reads the stack's serving, fleet and journal counters.
func countersOf(st *stack) map[string]int64 {
	c := make(map[string]int64)
	for _, srv := range st.servers() {
		s := srv.Stats()
		c["requests"] += s.Requests
		c["cache_hits"] += s.CacheHits
		c["idem_hits"] += s.IdemHits
		c["coalesced"] += s.Coalesced
		c["batched"] += s.BatchedJobs
		c["refused"] += s.Shed + s.QueueFull
		c["delta_requests"] += s.DeltaRequests
		c["delta_hits"] += s.DeltaHits
		c["hedges"] += s.Hedges
		for i := 0; i < srv.Pool().Size(); i++ {
			c["busy_ns"] += srv.Pool().BusyNanos(i)
		}
	}
	if st.coord != nil {
		s := st.coord.Stats()
		c["routed"], c["scattered"], c["coord_hits"] = s.Routed, s.Scattered, s.CacheHits
		c["retries"] = s.RouteFailovers + s.Redispatches
		c["refused"] += s.Shed
	}
	if st.jrnl != nil {
		s := st.jrnl.Stats()
		c["appends"], c["append_bytes"], c["fsyncs"] = s.Appends, s.AppendBytes, s.Fsyncs
	}
	return c
}

// traced is the -trace 1 run. An untraced pass over HTTP comes first: it
// is the base of the tracing overhead and of allocations per request, and
// its deterministic digest must equal the traced pass's. The traced pass
// drives a fresh stack in-process with spans, then a sample of its
// executed colorings is replayed through the lower layers.
func traced(w *workload, seed int64, dur time.Duration, root, spanPath string) (*report, error) {
	r := &report{}
	ref, err := w.setup(seed, root)
	if err != nil {
		return nil, err
	}
	a0 := heapAllocs()
	rrA := closedLoop(ref.in, ref.http(), ref.warm, w.prefix, dur)
	allocs := heapAllocs() - a0
	if err := ref.close(); err != nil {
		return nil, err
	}
	check(ref, rrA, r)

	inst, err := w.setup(seed, root)
	if err != nil {
		return nil, err
	}
	t := newTracer(inst.st)
	before := countersOf(inst.st)
	rrB := closedLoop(inst.in, t.send, inst.warm, w.prefix, dur)
	after := countersOf(inst.st)
	check(inst, rrB, r)
	drift := driftBetween(prefixAnswers(w, ref, rrA), prefixAnswers(w, inst, rrB))
	for i, d := range drift {
		if i == 5 {
			r.notes = append(r.notes, fmt.Sprintf("determinism: ... %d more drifted answers", len(drift)-i))
			break
		}
		r.notes = append(r.notes, "determinism: "+d)
	}
	rp, err := replay(w, inst, rrB, root)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	recs := append(t.recs[:], rp.rec)
	if err := writeSpans(spanPath, recs); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	m := layerMetrics(w, rrB, t, rp, recs, after, before)
	m["trace.cycle_drift"] = float64(len(drift))
	for i, d := range rp.details {
		if i == 5 {
			break
		}
		r.notes = append(r.notes, "replay mismatch: "+d)
	}
	nA := 0
	for c := range rrA.answers {
		nA += len(rrA.answers[c])
	}
	m["serve.allocs_per_request"] = ratio(float64(allocs), float64(nA))
	latA, latB := timedLatencies(rrA), timedLatencies(rrB)
	m["trace.rps_ratio"] = ratio(throughput(rrB), throughput(rrA))
	m["trace.p50_ratio"] = ratio(quantile(latB, 0.5), quantile(latA, 0.5))
	top, share := topLayer(m)
	r.notes = append(r.notes,
		fmt.Sprintf("largest self-time layer: %s (%.1f%% of request-path self time)", top, 100*share),
		fmt.Sprintf("tracing overhead: traced in-process throughput %.4gx, p50 %.4gx the untraced HTTP run (the traced pass also skips the loopback hop)",
			m["trace.rps_ratio"], m["trace.p50_ratio"]),
		fmt.Sprintf("spans written to %s", spanPath))
	for _, pl := range perLayer {
		r.add(pl[0], pl[1], m[pl[0]], 1)
	}
	return r, nil
}

// replay re-runs a deterministic sample of the traced run: the first
// executed colorings in sequence order (at most two sharded ones), or the
// first steps of each delta chain.
func replay(w *workload, inst *instance, rr *runResult, root string) (*replayer, error) {
	rp := &replayer{rec: newRecorder(time.Now()), devices: w.devicesPerServer()}
	if w.journal {
		dir, err := scratchDir(root, "replay-journal")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncBatch})
		if err != nil {
			return nil, fmt.Errorf("open replay journal: %w", err)
		}
		defer j.Close()
		rp.jrnl = j
	}
	if din, ok := inst.in.(*deltaInputs); ok {
		for _, h := range inst.warm {
			steps := rr.answers[h.chain]
			n := 0
			for n < len(steps) && n < w.replay/len(inst.warm) && steps[n].err == nil {
				n++
			}
			if err := rp.chain(din.chains[h.chain], h, steps[:n]); err != nil {
				return nil, err
			}
		}
		return rp, nil
	}
	plain, sharded := 0, 0
	take := func(a *answer) error {
		if !a.executed() || a.colors == nil {
			return nil
		}
		if a.res.Shards > 1 {
			if sharded >= 2 {
				return nil
			}
			sharded++
		} else {
			if plain >= w.replay {
				return nil
			}
			plain++
		}
		return rp.coloring(a)
	}
	for k := 0; plain < w.replay || sharded < 2; k++ {
		more := false
		for c := range rr.answers {
			if k < len(rr.answers[c]) {
				more = true
				if err := take(rr.answers[c][k]); err != nil {
					return nil, err
				}
			}
		}
		if !more {
			break
		}
	}
	for _, a := range inst.warm {
		if err := take(a); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// layerMetrics derives the per-layer metrics from the traced run's
// answers, spans, replay and counter deltas.
func layerMetrics(w *workload, rr *runResult, t *tracer, rp *replayer, recs []*recorder, after, before map[string]int64) map[string]float64 {
	m := make(map[string]float64)
	d := func(k string) float64 { return float64(after[k] - before[k]) }
	sm := spanMedians(recs)
	m["graph.decode_us"] = sm["graph.decode"]
	m["graph.fingerprint_us"] = sm["graph.fingerprint"]
	m["graph.apply_delta_us"] = sm["graph.apply_delta"]
	m["serve.encode_us"] = sm["serve.encode"]
	m["gpucolor.color_us"] = sm["gpucolor.color"]
	m["color.verify_us"] = sm["color.verify"]
	m["color.recolor_frontier_us"] = sm["color.recolor_frontier"]
	m["shard.color_us"] = sm["shard.color_devices"]
	m["journal.append_us"] = sm["journal.append"]

	var bytes, waits, execs, iters, attempts, frontier, recolored, fronts, hops []float64
	n := 0
	for c := range rr.answers {
		fronts = append(fronts, t.fronts[c]...)
		hops = append(hops, t.hops[c]...)
		for _, a := range rr.answers[c] {
			n++
			bytes = append(bytes, float64(a.bodyBytes))
			if a.err != nil {
				continue
			}
			if a.res.Delta {
				frontier = append(frontier, float64(a.res.FrontierSize))
				recolored = append(recolored, float64(a.res.Repaired))
			}
			if !a.executed() {
				continue
			}
			waits = append(waits, float64(a.res.WaitUS))
			execs = append(execs, float64(a.res.ExecUS))
			if a.res.Shards <= 1 && !a.res.Batched && (!a.res.Delta || a.res.DeltaFallback) {
				iters = append(iters, float64(a.res.Iterations))
				attempts = append(attempts, float64(a.res.Attempts))
			}
			if a.res.Shards > 1 {
				m["shard.jobs"]++
				m["shard.conflicts"] += float64(a.res.ShardConflicts)
				m["shard.repair_rounds"] += float64(a.res.ShardRepairRounds)
				m["shard.recolored"] += float64(a.res.ShardRecolored)
			}
		}
	}
	m["graph.upload_bytes"] = mean(bytes)
	m["serve.front_us"] = median(fronts)
	m["serve.queue_wait_us_p50"] = quantile(waits, 0.5)
	m["serve.queue_wait_us_p90"] = quantile(waits, 0.9)
	m["serve.exec_us"] = median(execs)
	m["serve.frontier_size"] = mean(frontier)
	m["color.recolored"] = mean(recolored)
	m["gpucolor.iterations"] = mean(iters)
	m["gpucolor.attempts"] = mean(attempts)
	m["cluster.hop_us"] = median(hops)

	m["serve.device_busy"] = ratio(d("busy_ns"), rr.window.Seconds()*1e9*devices)
	m["serve.cache_hit_ratio"] = ratio(d("cache_hits")+d("idem_hits"), d("requests"))
	m["serve.coalesced"] = d("coalesced")
	m["serve.idem_replays"] = d("idem_hits")
	m["serve.batched_jobs"] = d("batched")
	m["serve.refused"] = d("refused")
	m["serve.hedges"] = d("hedges")
	m["serve.delta_hit_ratio"] = ratio(d("delta_hits"), d("delta_requests"))
	m["journal.appends"] = ratio(d("appends"), float64(n))
	m["journal.append_bytes"] = ratio(d("append_bytes"), float64(n))
	m["journal.fsyncs"] = d("fsyncs")
	m["cluster.routed"] = d("routed")
	m["cluster.scattered"] = d("scattered")
	m["cluster.cache_hit_ratio"] = ratio(d("coord_hits"), float64(n))
	m["cluster.retries"] = d("retries")

	m["simt.lane_ops"] = mean(rp.laneOps)
	m["simt.bytes_moved"] = mean(rp.bytesMoved)
	m["simt.simd_util"] = mean(rp.simd)
	m["simt.host_ns_per_lane_op"] = ratio(rp.colorNS, rp.opsTotal)
	m["replay.mismatches"] = float64(rp.mismatches)

	self := selfTimes(recs[:connections])
	var total time.Duration
	for _, v := range self {
		total += v
	}
	for _, l := range selfLayers {
		m["self_share."+l] = ratio(float64(self[l]), float64(total))
	}
	_, m["trace.top_self_share"] = topLayer(m)
	spans := 0
	for _, r := range recs[:connections] {
		spans += len(r.spans)
	}
	m["trace.spans_per_request"] = ratio(float64(spans), float64(n))
	return m
}

// driftBetween compares the deterministic prefix of two runs of one seed
// answer by answer and describes every answer whose cycles, palette or
// colors differ. Any difference is a determinism defect of the program.
func driftBetween(a, b []*answer) []string {
	type pos struct{ conn, seq int }
	byPos := make(map[pos]*answer, len(a))
	for _, x := range a {
		byPos[pos{x.conn, x.seq}] = x
	}
	var out []string
	for _, y := range b {
		x, ok := byPos[pos{y.conn, y.seq}]
		if !ok || x.res.Cycles == y.res.Cycles && x.res.NumColors == y.res.NumColors && x.hash == y.hash {
			continue
		}
		out = append(out, fmt.Sprintf("%s: cycles %d vs %d, colors %d vs %d, same coloring %v, batched %v/%v (sizes %d/%d)",
			y.key, x.res.Cycles, y.res.Cycles, x.res.NumColors, y.res.NumColors, x.hash == y.hash,
			x.res.Batched, y.res.Batched, x.res.BatchSize, y.res.BatchSize))
	}
	return out
}
