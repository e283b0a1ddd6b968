package cluster

import (
	"context"
	"encoding/base64"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"gcolor/internal/graph"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
)

// shardAttempts bounds the workers tried for one shard sub-job: the
// initial dispatch plus exactly one re-dispatch to a different worker.
const shardAttempts = 2

// scatter runs one job as k-shard cross-worker scatter-gather through
// shard.ColorSharded: dispatchShard POSTs each shard's sub-job to a
// rendezvous-chosen worker, and the merge barrier and the bounded boundary
// repair loop run at the coordinator, because only the coordinator holds
// the whole graph. Sub-jobs are sent no-cache so workers do not stash
// shard fragments under the subgraph's fingerprint; the merged result
// lives only in the coordinator's cache.
func (c *Coordinator) scatter(ctx context.Context, cr *serve.ColorRequest, req *serve.Request, k int) (*serve.Response, error) {
	g := req.Graph
	// Every shard dispatch is deadline-bounded even when the caller's
	// context is not: a single hung worker must never hang the merge
	// barrier.
	ctx, cancel := c.workerCtx(ctx)
	defer cancel()
	iterations := make([]int, k)
	var redispatched atomic.Int64
	sr, err := shard.ColorSharded(ctx, g, shard.Options{K: k, Seed: cr.Seed, NoFallback: cr.NoCPUFallback},
		func(ctx context.Context, i, k int, sub *graph.Graph) ([]int32, int64, error) {
			resp, attempts, err := c.dispatchShard(ctx, sub, cr, req, i, k)
			if err != nil {
				return nil, 0, err
			}
			iterations[i] = resp.Iterations
			redispatched.Add(int64(attempts - 1))
			return resp.Colors, resp.Cycles, nil
		})
	if err != nil {
		return nil, err
	}
	return &serve.Response{
		Fingerprint:       req.Fingerprint,
		Colors:            sr.Colors,
		NumColors:         sr.NumColors,
		Cycles:            sr.CyclesTotal, // serial-equivalent fleet work
		Iterations:        slices.Max(iterations),
		Vertices:          g.NumVertices(),
		Edges:             g.NumEdges(),
		Shards:            sr.K,
		ShardConflicts:    sr.Repair.Conflicts,
		ShardRepairRounds: sr.Repair.Rounds,
		ShardRecolored:    sr.Repair.Recolored,
		Device:            -1, // the job spanned several workers
		Scattered:         true,
		Redispatched:      int(redispatched.Load()),
	}, nil
}

// dispatchShard sends shard i of k's sub-job and returns the worker's
// reply and the attempts made. A shard whose worker fails retryably is
// re-dispatched to a different worker (exclude-failed), up to
// shardAttempts workers in all. The shard's rendezvous key decorrelates
// from the whole graph's (and from sibling shards') so the k sub-jobs of
// one scatter spread across the fleet instead of piling onto fp's owner.
func (c *Coordinator) dispatchShard(ctx context.Context, sub *graph.Graph, cr *serve.ColorRequest, req *serve.Request, i, k int) (*serve.Response, int, error) {
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
	attempts := 0
	var lastErr error
	for attempts < shardAttempts {
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
				return resp, attempts, nil
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
			return nil, attempts, ctx.Err()
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
	return nil, attempts, &ShardError{Shard: i, Shards: k, Attempts: attempts, Err: lastErr}
}
