package serve

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/graph"
)

// TestDeltaStreamBeatsFullRecolor holds the incremental engine to its
// gates on a seeded stream. A resident rmat:12:16:1 takes 40 deltas of at
// most 1% of its edges each, and every answer must be a proper coloring
// of the successor graph.ApplyDelta builds, under that successor's
// fingerprint. The median delta must answer at least 3x faster than a
// from-scratch recolor of the same successor, timed on every 8th step on
// an isolated server with the cache off. Without the race detector, a
// steady-state single-edge delta must also stay within
// maxServeAllocsPerRequest allocations.
func TestDeltaStreamBeatsFullRecolor(t *testing.T) {
	const (
		steps      = 40
		fullEvery  = 8
		maxFrac    = 0.01
		minSpeedup = 3.0
		allocRuns  = 16
	)
	base, err := ParseGraphSpec("rmat:12:16:1")
	if err != nil {
		t.Fatal(err)
	}
	// Two servers, so a from-scratch recolor can never hit the delta
	// server's forward-updated cache.
	s := NewServer(Config{Devices: 2})
	defer s.Stop()
	full := NewServer(Config{Devices: 2})
	defer full.Stop()
	ctx := context.Background()

	fp := submitResident(t, s, base)
	rng := rand.New(rand.NewSource(42))
	g := base
	edges := upperEdges(g, nil)
	var deltaUS, fullUS []int64
	for step := 0; step < steps; step++ {
		// A mix of removals of existing edges and additions of fresh ones,
		// at most maxFrac of the current edge count.
		d := &graph.Delta{}
		for i := 1 + rng.Intn(max(1, int(maxFrac*float64(len(edges))))); i > 0; i-- {
			if rng.Intn(3) == 0 {
				d.RemoveEdges = append(d.RemoveEdges, edges[rng.Intn(len(edges))])
			} else if u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices()); u != v {
				d.AddEdges = append(d.AddEdges, [2]int32{int32(u), int32(v)})
			}
		}
		ng, wantFp, _, err := graph.ApplyDelta(g, d)
		if err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
		t0 := time.Now()
		res, err := s.Submit(ctx, &Request{Delta: d, BaseFingerprint: fp})
		deltaUS = append(deltaUS, time.Since(t0).Microseconds())
		if err != nil {
			t.Fatalf("step %d: delta: %v", step, err)
		}
		if res.Fingerprint != wantFp {
			t.Fatalf("step %d: fingerprint %016x, ApplyDelta says %016x", step, res.Fingerprint, wantFp)
		}
		if err := color.Verify(ng, res.Colors); err != nil {
			t.Fatalf("step %d: delta coloring: %v", step, err)
		}
		if step%fullEvery == 0 {
			t1 := time.Now()
			if _, err := full.Submit(ctx, &Request{Graph: ng, NoCache: true}); err != nil {
				t.Fatalf("step %d: full recolor: %v", step, err)
			}
			fullUS = append(fullUS, time.Since(t1).Microseconds())
		}
		g, fp = ng, res.Fingerprint
		edges = upperEdges(g, edges)
	}
	median := func(us []int64) int64 {
		slices.Sort(us)
		return max(1, us[(len(us)-1)/2])
	}
	dMed, fMed := median(deltaUS), median(fullUS)
	speedup := float64(fMed) / float64(dMed)
	st := s.Stats()
	t.Logf("delta p50 %dus vs full p50 %dus: %.1fx (floor %.1fx); %d hits, %d fallbacks",
		dMed, fMed, speedup, minSpeedup, st.DeltaHits, st.DeltaFallbacks)
	if speedup < minSpeedup {
		t.Fatalf("median delta %dus is %.2fx faster than a full recolor (%dus), floor %.1fx",
			dMed, speedup, fMed, minSpeedup)
	}

	if raceEnabled {
		t.Log("allocation check skipped: race detector instrumentation allocates")
		return
	}
	var before, after runtime.MemStats
	var mallocs uint64
	for done := 0; done < allocRuns; {
		u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
		if u == v {
			continue
		}
		d := &graph.Delta{AddEdges: [][2]int32{{int32(u), int32(v)}}}
		runtime.ReadMemStats(&before)
		res, err := s.Submit(ctx, &Request{Delta: d, BaseFingerprint: fp})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("single-edge delta %d: %v", done, err)
		}
		mallocs += after.Mallocs - before.Mallocs
		ng, _, _, err := graph.ApplyDelta(g, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := color.Verify(ng, res.Colors); err != nil {
			t.Fatalf("single-edge delta %d: %v", done, err)
		}
		g, fp = ng, res.Fingerprint
		done++
	}
	perDelta := mallocs / allocRuns
	t.Logf("steady-state single-edge delta: %d allocations", perDelta)
	if perDelta > maxServeAllocsPerRequest {
		t.Fatalf("a single-edge delta allocates %d objects, budget %d", perDelta, maxServeAllocsPerRequest)
	}
}

// upperEdges lists g's edges once each, as (v, u) with v < u, into buf.
func upperEdges(g *graph.Graph, buf [][2]int32) [][2]int32 {
	buf = buf[:0]
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				buf = append(buf, [2]int32{v, u})
			}
		}
	}
	return buf
}
