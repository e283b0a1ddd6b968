package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gcolor/internal/color"
	"gcolor/internal/exp"
	"gcolor/internal/gen"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

func triangle(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	return b.Build()
}

func testDevices(k int) []*simt.Device {
	devs := make([]*simt.Device, k)
	for i := range devs {
		d := simt.NewDevice()
		d.Workers = 1
		devs[i] = d
	}
	return devs
}

func TestPartitionInvariants(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(10, 16, gen.Graph500, 1),
		"grid": gen.Grid2D(32, 32),
		"gnm":  gen.GNM(500, 2000, 7),
		"tiny": triangle(t),
		"lone": gen.GNM(5, 0, 1),
	}
	for name, g := range graphs {
		for _, k := range []int{1, 2, 3, 4, 7} {
			for _, refine := range []bool{false, true} {
				p, err := Partition(g, k, refine)
				if err != nil {
					t.Fatalf("%s k=%d refine=%v: %v", name, k, refine, err)
				}
				wantK := k
				if wantK > g.NumVertices() {
					wantK = g.NumVertices()
				}
				if p.K != wantK {
					t.Fatalf("%s k=%d: plan.K = %d, want %d", name, k, p.K, wantK)
				}
				// Ranges are ordered, non-empty, and cover [0, n).
				at := int32(0)
				for s, r := range p.Ranges {
					if r.Lo != at || r.Hi <= r.Lo {
						t.Fatalf("%s k=%d shard %d: bad range [%d,%d) at %d", name, k, s, r.Lo, r.Hi, at)
					}
					at = r.Hi
					if p.Subs[s].NumVertices() != r.Size() {
						t.Fatalf("%s k=%d shard %d: sub has %d vertices, range %d", name, k, s, p.Subs[s].NumVertices(), r.Size())
					}
				}
				if int(at) != g.NumVertices() {
					t.Fatalf("%s k=%d: ranges cover %d of %d vertices", name, k, at, g.NumVertices())
				}
				// Every edge is internal to exactly one shard or on the
				// boundary list: arc counts must reconcile.
				internalArcs := 0
				for _, sub := range p.Subs {
					internalArcs += sub.NumArcs()
				}
				if internalArcs+2*len(p.Boundary) != g.NumArcs() {
					t.Fatalf("%s k=%d: %d internal arcs + 2*%d cuts != %d arcs",
						name, k, internalArcs, len(p.Boundary), g.NumArcs())
				}
				for _, e := range p.Boundary {
					if e[0] >= e[1] {
						t.Fatalf("%s k=%d: boundary edge %v not ordered", name, k, e)
					}
					if p.Shard(e[0]) == p.Shard(e[1]) {
						t.Fatalf("%s k=%d: boundary edge %v inside shard %d", name, k, e, p.Shard(e[0]))
					}
					if !g.HasEdge(e[0], e[1]) {
						t.Fatalf("%s k=%d: boundary edge %v not in graph", name, k, e)
					}
				}
				// Shard() agrees with the ranges.
				for s, r := range p.Ranges {
					if p.Shard(r.Lo) != s || p.Shard(r.Hi-1) != s {
						t.Fatalf("%s k=%d: Shard lookup disagrees with range %d", name, k, s)
					}
				}
			}
		}
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	g := gen.Grid2D(4, 4)
	if _, err := Partition(g, 0, false); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Partition(g, -3, true); err == nil {
		t.Fatal("k=-3 accepted")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := Partition(empty, 2, false); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestPartitionBalance(t *testing.T) {
	// Work weights must be within a modest factor of ideal on a graph
	// large enough to split cleanly.
	g := gen.RMAT(12, 16, gen.Graph500, 1)
	for _, k := range []int{2, 4} {
		p, err := Partition(g, k, true)
		if err != nil {
			t.Fatal(err)
		}
		ideal := (g.NumArcs() + g.NumVertices()) / k
		for s, w := range p.Weights {
			if w > 2*ideal {
				t.Errorf("k=%d shard %d: weight %d > 2x ideal %d", k, s, w, ideal)
			}
		}
	}
}

func TestMergeRejectsBadParts(t *testing.T) {
	g := gen.Grid2D(8, 8)
	p, err := Partition(g, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Merge([][]int32{make([]int32, p.Ranges[0].Size())}); err == nil {
		t.Fatal("wrong part count accepted")
	}
	if _, err := p.Merge([][]int32{make([]int32, 1), make([]int32, p.Ranges[1].Size())}); err == nil {
		t.Fatal("wrong part length accepted")
	}
}

func TestRepairBoundaryFixesCuts(t *testing.T) {
	// A path colored 0,1,0,1,... in both halves conflicts exactly at the
	// cut when the halves are merged with clashing parities.
	g := gen.Grid2D(1, 64)
	p, err := Partition(g, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]int32, 2)
	for s, r := range p.Ranges {
		part := make([]int32, r.Size())
		for i := range part {
			part[i] = int32(i % 2)
		}
		parts[s] = part
	}
	colors, st, err := MergeRepair(g, p, parts, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := color.Verify(g, colors); err != nil {
		t.Fatalf("repaired coloring invalid: %v", err)
	}
	if st.Fallback {
		t.Fatal("trivial boundary conflict fell back to greedy")
	}
	if st.Recolored == 0 && st.Conflicts > 0 {
		t.Fatal("conflicts reported but nothing recolored")
	}
}

func TestRepairBudgetExhaustion(t *testing.T) {
	// A triangle split into three singleton shards, all colored 0,
	// converges in one round: both low-priority endpoints are marked,
	// carry distinct ranks among their marked neighbours, and the
	// rank-offset first-fit hands them distinct colors from the same
	// snapshot.
	g := triangle(t)
	p, err := Partition(g, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]int32{{0}, {0}, {0}}
	colors, st, err := MergeRepair(g, p, parts, 1, 0, true)
	if err != nil {
		t.Fatalf("triangle: %v", err)
	}
	if err := color.Verify(g, colors); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 1 {
		t.Fatalf("triangle rounds = %d, want 1", st.Rounds)
	}

	// Budget exhaustion needs second-order conflicts (equal-rank marked
	// neighbours colliding): correlated per-shard greedy colorings of a
	// scale-free graph — every shard leans on color 0 the same way —
	// deterministically take more than one round.
	g = gen.RMAT(10, 8, gen.Graph500, 1)
	p, err = Partition(g, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	multi := make([][]int32, p.K)
	for i, sub := range p.Subs {
		multi[i] = color.Greedy(sub, color.Natural, 0)
	}
	colors, st, err = MergeRepair(g, p, multi, 1, 0, true)
	if err != nil {
		t.Fatalf("default budget: %v", err)
	}
	if err := color.Verify(g, colors); err != nil {
		t.Fatal(err)
	}
	if st.Rounds < 2 {
		t.Fatalf("rounds = %d, want >= 2 (case too easy to exhaust a 1-round budget)", st.Rounds)
	}

	// maxRounds=1 with noFallback surfaces the typed error: round one is
	// identical to the full run above, which needed more rounds.
	if _, _, err := MergeRepair(g, p, multi, 1, 1, true); !errors.Is(err, ErrRepairBudget) {
		t.Fatalf("err = %v, want ErrRepairBudget", err)
	}

	// maxRounds=1 with fallback still yields a verified coloring.
	colors, st, err = MergeRepair(g, p, multi, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Fallback {
		t.Fatal("expected greedy fallback")
	}
	if err := color.Verify(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRepairRejectsInternallyBrokenParts(t *testing.T) {
	// Boundary repair cannot see conflicts internal to a shard; MergeRepair
	// must catch them at verification and fall back (or error).
	g := gen.Grid2D(4, 4)
	p, err := Partition(g, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]int32, 2)
	for s, r := range p.Ranges {
		parts[s] = make([]int32, r.Size()) // all zero: internally improper
	}
	if _, _, err := MergeRepair(g, p, parts, 1, 0, true); err == nil {
		t.Fatal("internally broken parts accepted with noFallback")
	}
	colors, st, err := MergeRepair(g, p, parts, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Fallback {
		t.Fatal("expected fallback for internally broken parts")
	}
	if err := color.Verify(g, colors); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMatchesSingleDevice is the cross-shard correctness property:
// for every seed dataset and K in {2,3,4}, the K-shard coloring is
// conflict-free and within a bounded color-count factor of the
// single-device run.
func TestShardedMatchesSingleDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded property sweep is not short")
	}
	ctx := context.Background()
	for _, ds := range exp.Datasets() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			g := ds.Build(exp.Small)
			dev := simt.NewDevice()
			dev.Workers = 1
			single, err := gpucolor.ColorContext(ctx, dev, g, gpucolor.AlgHybrid, gpucolor.ResilientOptions{})
			if err != nil {
				t.Fatalf("single-device: %v", err)
			}
			for _, k := range []int{2, 3, 4} {
				res, err := ColorDevices(ctx, testDevices(k), g, gpucolor.AlgHybrid,
					Options{K: k, Seed: 1}, gpucolor.ResilientOptions{})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if err := color.Verify(g, res.Colors); err != nil {
					t.Fatalf("k=%d: sharded coloring invalid: %v", k, err)
				}
				if limit := single.NumColors*13/10 + 1; res.NumColors > limit {
					t.Errorf("k=%d: %d colors vs single-device %d (limit %d)",
						k, res.NumColors, single.NumColors, limit)
				}
				if res.Repair.Fallback {
					t.Errorf("k=%d: repair fell back to greedy", k)
				}
			}
		})
	}
}

// TestShardedDeterministic pins that the same inputs reproduce the same
// coloring bit for bit, concurrency notwithstanding.
func TestShardedDeterministic(t *testing.T) {
	ctx := context.Background()
	g := gen.RMAT(10, 8, gen.Graph500, 3)
	run := func() []int32 {
		res, err := ColorDevices(ctx, testDevices(3), g, gcAlg(), Options{K: 3, Seed: 5}, gpucolor.ResilientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Colors
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vertex %d: %d vs %d across runs", i, a[i], b[i])
		}
	}
}

func gcAlg() gpucolor.Algorithm { return gpucolor.AlgBaseline }

// TestShardedUnderFault arms a fault injector on one of the devices and
// asserts the sharded run still completes with a verified coloring — the
// per-shard resilient ladder absorbs the faults.
func TestShardedUnderFault(t *testing.T) {
	ctx := context.Background()
	g := gen.RMAT(10, 8, gen.Graph500, 2)
	devs := testDevices(3)
	devs[1].Fault = simt.NewFaultInjector(42, 0.02)
	res, err := ColorDevices(ctx, devs, g, gpucolor.AlgBaseline, Options{K: 3, Seed: 1}, gpucolor.ResilientOptions{})
	if err != nil {
		t.Fatalf("sharded run under fault: %v", err)
	}
	if err := color.Verify(g, res.Colors); err != nil {
		t.Fatalf("coloring under fault invalid: %v", err)
	}
}

// TestColorShardedPropagatesErrors pins that a failing shard cancels the
// rest and that the error returned is the failing shard's own, not that
// of a sibling that only saw the cancellation.
func TestColorShardedPropagatesErrors(t *testing.T) {
	g := gen.Grid2D(16, 16)
	boom := fmt.Errorf("kernel exploded")
	_, err := ColorSharded(context.Background(), g, Options{K: 4, Seed: 1},
		func(ctx context.Context, i, k int, sub *graph.Graph) ([]int32, int64, error) {
			if i == 2 {
				return nil, 0, fmt.Errorf("shard %d/%d: %w", i, k, boom)
			}
			<-ctx.Done() // the failure must cancel the siblings
			return nil, 0, fmt.Errorf("shard %d/%d: %w", i, k, ctx.Err())
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the failing shard's error", err)
	}
	if want := "shard 2/4: kernel exploded"; err.Error() != want {
		t.Fatalf("err = %q, want %q (no second wrapper)", err, want)
	}
}

// TestColorShardedRefinesCuts pins that ColorSharded partitions with cut
// refinement on.
func TestColorShardedRefinesCuts(t *testing.T) {
	g := gen.RMAT(10, 8, gen.Graph500, 1)
	refined, err := Partition(g, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Partition(g, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if refined.CutEdges() == plain.CutEdges() {
		t.Fatalf("refinement leaves %d cut edges either way; pick a graph that tells them apart", plain.CutEdges())
	}
	res, err := ColorSharded(context.Background(), g, Options{K: 4, Seed: 1},
		func(ctx context.Context, i, k int, sub *graph.Graph) ([]int32, int64, error) {
			return color.Greedy(sub, color.Natural, 0), 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutEdges != refined.CutEdges() {
		t.Fatalf("ColorSharded cut %d edges, refined partition %d, unrefined %d",
			res.CutEdges, refined.CutEdges(), plain.CutEdges())
	}
}

// TestColorDevicesReportsBudget pins the typed error of a sharded run whose
// shards overrun a tiny cycle budget with no fallback: the budget error of
// the shard that failed, not the cancellation its siblings saw.
func TestColorDevicesReportsBudget(t *testing.T) {
	g := gen.RMAT(12, 8, gen.Graph500, 1)
	for run := 0; run < 3; run++ {
		_, err := ColorDevices(context.Background(), testDevices(4), g, gpucolor.AlgBaseline,
			Options{K: 4, Seed: 1, NoFallback: true},
			gpucolor.ResilientOptions{CycleBudget: 2000, NoCPUFallback: true})
		if !errors.Is(err, gpucolor.ErrBudgetExceeded) {
			t.Fatalf("run %d: err = %v, want ErrBudgetExceeded", run, err)
		}
	}
}

func TestColorDevicesNeedsDevices(t *testing.T) {
	g := gen.Grid2D(4, 4)
	if _, err := ColorDevices(context.Background(), nil, g, gpucolor.AlgBaseline, Options{K: 2}, gpucolor.ResilientOptions{}); err == nil {
		t.Fatal("nil device list accepted")
	}
}

// TestPolicyCount covers every branch of the shard policy that servers
// and coordinators share, and that the executor count is taken only once
// the request and the graph's size call for a split.
func TestPolicyCount(t *testing.T) {
	// edges builds a 1000-vertex graph with exactly m edges.
	edges := func(m int) *graph.Graph {
		b := graph.NewBuilder(1000)
		for u := int32(0); m > 0; u++ {
			for v := u + 1; v < 1000 && m > 0; v++ {
				b.AddEdge(u, v)
				m--
			}
		}
		return b.Build()
	}
	var (
		atV, belowV = gen.Path(DefaultAutoVertices), gen.Path(DefaultAutoVertices - 1)
		atE, belowE = edges(DefaultAutoEdges), edges(DefaultAutoEdges - 1)
		small       = gen.Path(100) // 100 vertices, 99 edges
		tiny        = gen.Path(3)
		huge        = gen.Path(40000)
	)
	for _, c := range []struct {
		name      string
		p         Policy
		g         *graph.Graph
		shards    int
		executors int
		want      int
		asks      bool // whether Count may take the executor count
	}{
		{"pinned 1", Policy{}, huge, 1, 4, 1, false},
		{"negative", Policy{}, huge, -1, 4, 1, false},
		{"negative below threshold", Policy{}, small, -3, 4, 1, false},
		{"pinned K", Policy{}, small, 3, 4, 3, true},
		{"pinned K above executors", Policy{}, small, 6, 2, 6, true},
		{"disabled pinned", Policy{Disabled: true}, small, 3, 4, 1, false},
		{"disabled auto", Policy{Disabled: true}, huge, 0, 4, 1, false},
		{"one executor pinned", Policy{}, small, 3, 1, 1, true},
		{"one executor auto", Policy{}, huge, 0, 1, 1, true},
		{"auto at vertex default", Policy{}, atV, 0, 4, 4, true},
		{"auto below vertex default", Policy{}, belowV, 0, 4, 1, false},
		{"auto at edge default", Policy{}, atE, 0, 4, 4, true},
		{"auto below edge default", Policy{}, belowE, 0, 4, 1, false},
		{"auto at vertex threshold", Policy{AutoVertices: 100}, small, 0, 3, 3, true},
		{"auto below vertex threshold", Policy{AutoVertices: 101}, small, 0, 3, 1, false},
		{"auto at edge threshold", Policy{AutoEdges: 99}, small, 0, 3, 3, true},
		{"auto below edge threshold", Policy{AutoEdges: 100}, small, 0, 3, 1, false},
		{"vertex trigger off", Policy{AutoVertices: -1}, atV, 0, 4, 1, false},
		{"edge trigger off", Policy{AutoEdges: -1}, atE, 0, 4, 1, false},
		{"both triggers off", Policy{AutoVertices: -1, AutoEdges: -1}, huge, 0, 4, 1, false},
		{"auto K", Policy{K: 3}, huge, 0, 8, 3, true},
		{"auto K 0 is one per executor", Policy{}, huge, 0, 5, 5, true},
		{"auto negative K is one per executor", Policy{K: -2}, huge, 0, 5, 5, true},
		{"pinned beats K", Policy{K: 3}, small, 5, 8, 5, true},
		{"pinned capped", Policy{}, huge, 40, 4, MaxShards, true},
		{"auto K capped", Policy{K: 40}, huge, 0, 4, MaxShards, true},
		{"executors capped", Policy{}, huge, 0, 64, MaxShards, true},
		{"capped at vertex count", Policy{}, tiny, 8, 4, 3, true},
		{"auto capped at vertex count", Policy{AutoVertices: 3}, tiny, 0, 8, 3, true},
		{"one vertex", Policy{}, gen.Path(1), 4, 4, 1, true},
	} {
		asked := false
		got := c.p.Count(c.g, c.shards, func() int { asked = true; return c.executors })
		if got != c.want {
			t.Errorf("%s: Count = %d, want %d", c.name, got, c.want)
		}
		if asked && !c.asks {
			t.Errorf("%s: took the executor count for a job that runs whole", c.name)
		}
	}
}
