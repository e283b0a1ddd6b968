package cluster

import (
	"context"
	"encoding/base64"
	"fmt"
	"strconv"
	"sync/atomic"

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
// lives only in the coordinator's cache. The reply folds its shards'
// evidence through serve.ShardedResponse, as Server.runSharded does.
func (c *Coordinator) scatter(ctx context.Context, cr *serve.ColorRequest, req *serve.Request, k int) (*serve.Response, error) {
	g := req.Graph
	// Every shard dispatch is deadline-bounded even when the caller's
	// context is not: a single hung worker must never hang the merge
	// barrier.
	ctx, cancel := c.workerCtx(ctx)
	defer cancel()
	replies := make([]serve.Response, k)
	var redispatched atomic.Int64
	sr, err := shard.ColorSharded(ctx, g, shard.Options{K: k, Seed: cr.Seed, NoFallback: cr.NoCPUFallback},
		func(ctx context.Context, i, k int, sub *graph.Graph) ([]int32, int64, error) {
			resp, attempts, err := c.dispatchShard(ctx, sub, cr, req, i, k)
			if err != nil {
				return nil, 0, err
			}
			replies[i] = *resp
			redispatched.Add(int64(attempts - 1))
			return resp.Colors, resp.Cycles, nil
		})
	if err != nil {
		return nil, err
	}
	res := serve.ShardedResponse(req.Fingerprint, sr, replies)
	res.Vertices, res.Edges = g.NumVertices(), g.NumEdges()
	res.Scattered = true
	res.Redispatched = int(redispatched.Load())
	return res, nil
}

// dispatchShard sends shard i of k's sub-job and returns the worker's
// reply and the attempts made. A shard whose worker fails retryably is
// re-dispatched to a different worker (exclude-failed), up to
// shardAttempts workers in all. The shard's rendezvous key decorrelates
// from the whole graph's (and from sibling shards') so the k sub-jobs of
// one scatter spread across the fleet instead of piling onto fp's owner.
// A reply with the wrong number of colors fails the shard; every other
// failure but an abandoned call is wrapped as a *ShardError.
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
	resp, m, attempts, err := c.callWorkers(ctx, &workerCall{
		body: &sreq, rid: shardRID,
		key:   mix64(req.Fingerprint ^ (uint64(i)+1)*0x9e3779b97f4a7c15),
		tries: shardAttempts, failovers: &c.redispatches,
	})
	if err == nil && len(resp.Colors) != sub.NumVertices() {
		err = &WorkerError{
			Worker: m.addr, Status: 200, Kind: "bad_shard_reply",
			Err: fmt.Errorf("shard %d: got %d colors for %d vertices", i, len(resp.Colors), sub.NumVertices()),
		}
	}
	switch {
	case err == nil:
		return resp, attempts, nil
	case err == ctx.Err():
		return nil, attempts, err
	}
	return nil, attempts, &ShardError{Shard: i, Shards: k, Attempts: attempts, Err: err}
}
