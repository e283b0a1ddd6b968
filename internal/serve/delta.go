package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/graph"
	"gcolor/internal/lru"
)

// This file is the incremental coloring engine: the versioned resident
// graph store and the delta submission path. A client uploads a graph with
// Resident set, then streams mutations as delta requests (base fingerprint
// + edge add/remove + vertex appends). The server applies each delta to the
// resident base, recolors only the affected frontier with the repair
// machinery (color.RecolorFrontier), and pins the successor as a new
// version — work proportional to the mutation, not the graph. When the
// frontier exceeds the configured budget the delta falls back to a full
// recolor of the successor through the normal queue/device path, and when
// the base fingerprint is unknown the request fails with a typed 404 so the
// client re-uploads the full graph.
//
// A delta-produced version's fingerprint is the successor's *content*
// fingerprint (graph.ApplyDelta computes it streaming), so the version
// chain's identity collapses to content identity: the successor shares
// result-cache, coalescing, and cluster-routing keys with a from-scratch
// upload of the same graph, and the cache gains an entry under the new
// fingerprint the moment the delta settles — entries update forward instead
// of being invalidated.

// The incremental engine's sizes, the same for every server.
const (
	// versionEntries is the capacity of the resident version store.
	versionEntries = 64
	// frontierFraction is the recolor budget: a delta whose frontier
	// exceeds this fraction of the successor's vertex count falls back to
	// a full recolor.
	frontierFraction = 0.2
)

// UnknownBaseError is the typed failure of a delta request whose base
// fingerprint is not resident (never uploaded, evicted, or lost across a
// restart whose journal no longer held it). The client owns the recovery:
// re-upload the full graph with Resident set, then resume the stream.
type UnknownBaseError struct{ Fingerprint uint64 }

func (e *UnknownBaseError) Error() string {
	return fmt.Sprintf("serve: unknown base version %s: re-upload the full graph as resident and retry the delta",
		graph.FingerprintString(e.Fingerprint))
}

// BadDeltaError wraps a malformed delta (endpoints out of range, self
// loops, vertex-cap overflow) — a client error, not a serving failure.
type BadDeltaError struct{ Err error }

func (e *BadDeltaError) Error() string { return e.Err.Error() }
func (e *BadDeltaError) Unwrap() error { return e.Err }

// ParseFingerprint parses the 16-hex-digit form produced by
// graph.FingerprintString — the wire spelling of base_fingerprint.
func ParseFingerprint(s string) (uint64, error) {
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: bad fingerprint %q", s)
	}
	return fp, nil
}

// versionStore is the fixed-capacity LRU of resident graph versions:
// fingerprint -> (graph, proper coloring, how it was made). Entries are
// immutable once stored (the coloring and edit lists are copied in, a
// refresh replaces the entry, and readers copy out), so lookups can hand
// back the entry without further locking.
type versionStore struct {
	*lru.Cache[uint64, *versionEntry]
}

type versionEntry struct {
	g      *graph.Graph
	colors []int32
	// delta, applied to the version whose fingerprint is base, made this
	// one (nil for an upload). Snapshot compaction writes a version in
	// this form when its base was written earlier in the same snapshot.
	base  uint64
	delta *graph.Delta
}

// put pins (or refreshes) a version made by applying d to the version base
// (d nil for an upload). The coloring and d's edit lists are copied; the
// graph is shared (Graph is immutable). Colorings that do not match the
// graph are refused — a truncated journal record must not poison the
// chain.
func (c versionStore) put(fp uint64, g *graph.Graph, colors []int32, base uint64, d *graph.Delta) {
	if g == nil || len(colors) != g.NumVertices() {
		return
	}
	e := &versionEntry{g: g, colors: slices.Clone(colors)}
	if d != nil {
		e.base, e.delta = base, cloneDelta(d)
	}
	c.Put(fp, e)
}

// cloneDelta copies d's edit lists into one allocation.
func cloneDelta(d *graph.Delta) *graph.Delta {
	na := len(d.AddEdges)
	edits := append(append(make([][2]int32, 0, na+len(d.RemoveEdges)), d.AddEdges...), d.RemoveEdges...)
	return &graph.Delta{AddVertices: d.AddVertices, AddEdges: edits[:na:na], RemoveEdges: edits[na:]}
}

// deltaScratch pools the frontier-recolor buffers: a warm steady-state
// delta stream recolors with zero scratch allocations.
var deltaScratch = sync.Pool{New: func() any { return new(color.Scratch) }}

// submitDelta serves one delta request: resolve the base version, apply
// the mutation, and either frontier-recolor on the host (the incremental
// hit path — no queue, no device) or fall back to a full recolor of the
// successor through the normal admission path. Either way the successor is
// pinned as a new resident version and cached under its own fingerprint.
func (s *Server) submitDelta(ctx context.Context, req *Request) (*Response, error) {
	if req.Graph != nil {
		return nil, errors.New("serve: delta request must not also carry a graph")
	}
	s.reg.Counter("requests_total").Inc()
	s.reg.Counter("delta_requests_total").Inc()
	if req.Delta == nil {
		req.Delta = &graph.Delta{}
	}
	d := req.Delta

	// Idempotent replay first, exactly as in Submit — and through drain. A
	// journal-warmed entry is held until the successor it must color is
	// built.
	replayed, ok, held := s.front.replay(req, nil)
	if ok {
		return replayed, nil
	}

	base, ok := s.versions.Get(req.BaseFingerprint)
	if !ok {
		s.reg.Counter("delta_unknown_base_total").Inc()
		return nil, &UnknownBaseError{Fingerprint: req.BaseFingerprint}
	}
	ng, fp, frontier, err := graph.ApplyDelta(base.g, d)
	if err != nil {
		return nil, &BadDeltaError{Err: err}
	}
	if held {
		if res, ok, _ := s.front.replay(req, ng); ok {
			return res, nil
		}
	}

	// From here on the request is for the successor graph: it shares
	// cache, coalescing, and shard-policy keys with a full upload of the
	// same content, and its result is pinned for the next delta.
	req.Graph = ng
	req.Fingerprint = fp
	req.Resident = true
	shards := s.effectiveShards(req)
	key := keyOf(req, fp, shards)
	if hit, ok := s.front.hit(req, key); ok {
		s.versions.put(fp, ng, hit.Colors, req.BaseFingerprint, d) // re-pin: the chain continues
		hit.Delta = true
		hit.FrontierSize = len(frontier)
		hit.Vertices = ng.NumVertices()
		hit.Edges = ng.NumEdges()
		return hit, nil
	}
	if s.front.Draining() {
		return nil, ErrDraining
	}

	budget := int(s.frontier * float64(ng.NumVertices()))
	if len(frontier) > budget {
		return s.deltaFallback(ctx, req, fp, key, shards, ng, len(frontier))
	}

	start := time.Now()
	n := ng.NumVertices()
	colors := make([]int32, n)
	copy(colors, base.colors)
	for i := len(base.colors); i < n; i++ {
		colors[i] = color.Uncolored
	}
	sc := deltaScratch.Get().(*color.Scratch)
	recolored := color.RecolorFrontier(ng, colors, frontier, sc)
	deltaScratch.Put(sc)
	// The proof checks only where the step changed something. The store
	// holds proper colorings only (warm start verifies in full before it
	// pins, and every other put stores a coloring proved in this process:
	// a cache hit's included, since Admission.hit proves a journal-warmed
	// entry on first use), so this equals a full Verify of the successor.
	if verr := color.VerifyChanged(ng, colors, base.colors, frontier); verr != nil {
		// Unreachable while the base coloring is proper (the frontier
		// covers every changed neighbourhood); if a bug ever breaks the
		// contract, degrade to a full recolor rather than serve a bad
		// coloring.
		return s.deltaFallback(ctx, req, fp, key, shards, ng, len(frontier))
	}
	s.reg.Counter("delta_hits").Inc()
	s.reg.Histogram("delta_frontier_size").Add(int64(len(frontier)))
	res := &Response{
		Fingerprint:  fp,
		Colors:       colors,
		NumColors:    color.NumColors(colors),
		Delta:        true,
		FrontierSize: len(frontier),
		Repaired:     recolored,
		Shards:       1,
		Vertices:     n,
		Edges:        ng.NumEdges(),
		Device:       -1,
		Exec:         time.Since(start),
	}
	s.reg.Counter("completed_total").Inc()
	s.versions.put(fp, ng, colors, req.BaseFingerprint, d)
	// Settle the delta like any admitted miss, already done: journaled when
	// replayable — the accept's Resident flag and wire form (base
	// fingerprint + edit lists) let crash replay rebuild this version from
	// its settled pair without re-running anything — then cached and stored
	// under its Idempotency-Key, the caller getting its own Colors copy.
	return s.front.admit(ctx, req, key, false, func(fl *flight) error {
		s.front.finish(fl, res, nil)
		return nil
	})
}

// deltaFallback recolors the successor graph from scratch through the
// normal admission path (queue, devices, sharding) and pins the result.
// The caller still gets delta evidence: Delta + DeltaFallback set,
// FrontierSize reporting why the incremental path was not taken.
func (s *Server) deltaFallback(ctx context.Context, req *Request, fp uint64, key cacheKey, shards int, ng *graph.Graph, frontier int) (*Response, error) {
	s.reg.Counter("delta_fallbacks_total").Inc()
	res, err := s.front.admit(ctx, req, key, !req.NoCache, s.enqueuer(ctx, fp, shards))
	if err != nil {
		return nil, err
	}
	s.versions.put(fp, ng, res.Colors, req.BaseFingerprint, req.Delta)
	res.Delta = true
	res.DeltaFallback = true
	res.FrontierSize = frontier
	res.Vertices = ng.NumVertices()
	res.Edges = ng.NumEdges()
	return res, nil
}
