package cluster

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gcolor/internal/graph"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
)

// scatter runs one job as k-shard cross-worker scatter-gather: partition with
// the edge-balanced splitter, POST one sub-job per shard to rendezvous-
// chosen workers in parallel, barrier on the gather, and reconcile the
// per-shard colorings with the bounded boundary repair loop — at the
// coordinator, because only the coordinator holds the whole graph.
//
// Failover: a shard whose worker fails retryably is re-dispatched to a
// different worker (exclude-failed), bounded by ShardAttempts — with the
// default 2, exactly one re-dispatch. Sub-jobs are sent no-cache so
// workers do not stash shard fragments under the subgraph's fingerprint;
// the merged result lives only in the coordinator's cache.
func (c *Coordinator) scatter(ctx context.Context, cr *serve.ColorRequest, req *serve.Request, k int) (*serve.Response, error) {
	g := req.Graph
	plan, err := shard.Partition(g, k, true)
	if err != nil {
		return nil, err
	}

	type shardOut struct {
		colors     []int32
		cycles     int64
		iterations int
		attempts   int
		err        error
	}
	outs := make([]shardOut, plan.K)
	// Every shard dispatch is deadline-bounded even when the caller's
	// context is not: a single hung worker must never hang the merge
	// barrier below.
	ctx, wcancel := c.workerCtx(ctx)
	defer wcancel()
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := range plan.Subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			colors, cycles, iters, attempts, err := c.dispatchShard(sctx, plan.Subs[i], cr, req, i, plan.K)
			outs[i] = shardOut{colors: colors, cycles: cycles, iterations: iters, attempts: attempts, err: err}
			if err != nil {
				cancel() // a lost shard fails the merge; reel the siblings in
			}
		}(i)
	}
	wg.Wait() // merge barrier: every shard decided

	// Prefer the error of the shard that actually failed over siblings
	// that merely observed the cancellation.
	var firstErr error
	redispatched := 0
	for i := range outs {
		if outs[i].attempts > 1 {
			redispatched += outs[i].attempts - 1
		}
		e := outs[i].err
		if e == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(e, context.Canceled)) {
			firstErr = e
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	parts := make([][]int32, plan.K)
	for i := range outs {
		parts[i] = outs[i].colors
	}
	colors, st, err := shard.MergeRepair(g, plan, parts, cr.Seed, c.cfg.MaxRepairRounds, cr.NoCPUFallback)
	if err != nil {
		return nil, err
	}
	res := &serve.Response{
		Fingerprint:       req.Fingerprint,
		Colors:            colors,
		NumColors:         st.NumColors,
		Vertices:          g.NumVertices(),
		Edges:             g.NumEdges(),
		Shards:            plan.K,
		ShardConflicts:    st.Conflicts,
		ShardRepairRounds: st.Rounds,
		ShardRecolored:    st.Recolored,
		Device:            -1, // the job spanned several workers
		Scattered:         true,
		Redispatched:      redispatched,
	}
	for i := range outs {
		res.Cycles += outs[i].cycles // serial-equivalent fleet work
		if outs[i].iterations > res.Iterations {
			res.Iterations = outs[i].iterations
		}
	}
	return res, nil
}

// dispatchShard sends one shard sub-job, failing over across workers up
// to ShardAttempts times. The shard's rendezvous key decorrelates from
// the whole graph's (and from sibling shards') so the K sub-jobs of one
// scatter spread across the fleet instead of piling onto fp's owner.
func (c *Coordinator) dispatchShard(ctx context.Context, sub *graph.Graph, cr *serve.ColorRequest, req *serve.Request, i, k int) (colors []int32, cycles int64, iterations, attempts int, err error) {
	// Shards travel as binary CSR frames (base64 in the JSON envelope),
	// not edge-list text: the worker decodes the frame straight into its
	// CSR arrays instead of re-parsing and re-sorting an edge list whose
	// text form is several times the frame size.
	sreq := serve.ColorRequest{
		GraphCSRB64:   base64.StdEncoding.EncodeToString(graph.EncodeWireCSR(sub)),
		Alg:           cr.Alg,
		Seed:          cr.Seed + uint32(i), // decorrelate per-shard priorities
		Threshold:     cr.Threshold,
		Fused:         cr.Fused,
		CycleBudget:   cr.CycleBudget,
		MaxRetries:    cr.MaxRetries,
		NoCPUFallback: cr.NoCPUFallback,
		NoCache:       true, // only the coordinator caches the merged result
		IncludeColors: true,
	}
	// rid-s<i> keeps the worker journal's evidence trail pointing at the
	// originating coordinator request while keeping shard records distinct.
	shardRID := ""
	if req.RequestID != "" {
		shardRID = req.RequestID + "-s" + strconv.Itoa(i)
	}
	key := mix64(req.Fingerprint ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	exclude := make(map[int]bool)
	var lastErr error
	for attempt := 0; attempt < c.cfg.ShardAttempts; attempt++ {
		m, probe, err := c.reg.pick(key, exclude)
		if err != nil {
			break // no worker left to try; report the shard's last failure
		}
		m.jobs.Add(1)
		attempts++
		start := time.Now()
		resp, err := callWorker(ctx, c.client, m.addr, &sreq, shardRID, "", c.epoch)
		exec := time.Since(start)
		if err == nil {
			if len(resp.Colors) != sub.NumVertices() {
				err = &WorkerError{
					Worker: m.addr, Status: 200, Kind: "bad_shard_reply",
					Err: fmt.Errorf("shard %d: got %d colors for %d vertices", i, len(resp.Colors), sub.NumVertices()),
				}
			} else {
				m.seen(time.Now())
				c.reg.observe(m, probe, true, 1, exec)
				return resp.Colors, resp.Cycles, resp.Iterations, attempts, nil
			}
		}
		lastErr = err
		we, _ := err.(*WorkerError)
		if we != nil && we.Status > 0 {
			m.seen(time.Now())
		}
		if c.noteStaleEpoch(we) {
			break // every worker will fence us; stop the shard here
		}
		good, reward := judgeWorkerError(we)
		c.reg.observe(m, probe, good, reward, exec)
		if ctx.Err() != nil {
			return nil, 0, 0, attempts, ctx.Err()
		}
		if we == nil || !we.Retryable() {
			break
		}
		exclude[m.id] = true
		c.redispatches.Add(1)
	}
	if lastErr == nil {
		lastErr = ErrNoWorkers
	}
	return nil, 0, 0, attempts, &ShardError{Shard: i, Shards: k, Attempts: attempts, Err: lastErr}
}
