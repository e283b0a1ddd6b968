package gpuapps

import (
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"gcolor/internal/gen"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

func testDev() *simt.Device {
	d := simt.NewDevice()
	d.NumCUs = 4
	d.WavefrontWidth = 16
	d.WorkgroupSize = 64
	return d
}

func TestBFSMatchesCPU(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":  gen.Path(50),
		"grid":  gen.Grid2D(12, 13),
		"rmat":  gen.RMAT(9, 8, gen.Graph500, 2),
		"gnm":   gen.GNM(400, 1600, 3),
		"disco": gen.GNM(200, 100, 4), // likely disconnected
	}
	for name, g := range graphs {
		res, err := BFS(testDev(), g, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := BFSCPU(g, 0)
		for v := range want {
			if res.Levels[v] != want[v] {
				t.Errorf("%s: level[%d] = %d, want %d", name, v, res.Levels[v], want[v])
				break
			}
		}
		if res.Stats.Cycles <= 0 {
			t.Errorf("%s: no cycles recorded", name)
		}
	}
}

func TestBFSFrontierProfile(t *testing.T) {
	g := gen.Path(10)
	res, err := BFS(testDev(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Path from one end: 10 levels of frontier size 1... the last frontier
	// (vertex 9) still runs one expand that finds nothing.
	if len(res.FrontierSizes) != 10 {
		t.Errorf("frontier profile %v, want 10 levels", res.FrontierSizes)
	}
	for i, s := range res.FrontierSizes {
		if s != 1 {
			t.Errorf("level %d frontier = %d, want 1", i, s)
		}
	}
}

func TestBFSBadSource(t *testing.T) {
	if _, err := BFS(testDev(), gen.Path(5), 5); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := BFS(testDev(), gen.Path(5), -1); err == nil {
		t.Error("negative source accepted")
	}
}

func TestBFSHybridMatchesBFS(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat": gen.RMAT(10, 16, gen.Graph500, 2),
		"grid": gen.Grid2D(15, 15),
		"star": gen.Star(300),
	} {
		base, err := BFS(testDev(), g, 0)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := BFSHybrid(testDev(), g, 0, 32)
		if err != nil {
			t.Fatal(err)
		}
		for v := range base.Levels {
			if base.Levels[v] != hyb.Levels[v] {
				t.Errorf("%s: level[%d] = %d vs %d", name, v, hyb.Levels[v], base.Levels[v])
				break
			}
		}
		if len(hyb.FrontierSizes) != len(base.FrontierSizes) {
			t.Errorf("%s: frontier profiles differ", name)
		}
	}
}

func TestBFSHybridFasterOnHubFrontiers(t *testing.T) {
	// A star's level-1 expansion is a single degree-(n-1) vertex: the
	// baseline serializes one lane over all leaves, the hybrid spreads it
	// over a workgroup.
	g := gen.Star(5000)
	dev := simt.NewDevice()
	base, err := BFS(dev, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := BFSHybrid(simt.NewDevice(), g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Stats.Cycles >= base.Stats.Cycles {
		t.Errorf("hybrid BFS %d cycles >= baseline %d on a star", hyb.Stats.Cycles, base.Stats.Cycles)
	}
}

func TestBFSHybridBadSource(t *testing.T) {
	if _, err := BFSHybrid(testDev(), gen.Path(5), 9, 0); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestPageRankMatchesCPU(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"star": gen.Star(50),
		"rmat": gen.RMAT(8, 8, gen.Graph500, 5),
		"grid": gen.Grid2D(10, 10),
	} {
		res := PageRank(testDev(), g, PageRankOptions{})
		want := PageRankCPU(g, PageRankOptions{})
		for v := range want {
			if math.Abs(float64(res.Ranks[v])-want[v]) > 1e-3 {
				t.Errorf("%s: rank[%d] = %v, want %v", name, v, res.Ranks[v], want[v])
				break
			}
		}
		// Ranks are a distribution.
		var sum float64
		for _, r := range res.Ranks {
			sum += float64(r)
		}
		if math.Abs(sum-1) > 1e-2 {
			t.Errorf("%s: ranks sum to %v, want ~1", name, sum)
		}
	}
}

func TestPageRankStarShape(t *testing.T) {
	g := gen.Star(100)
	res := PageRank(testDev(), g, PageRankOptions{})
	hub, leaf := res.Ranks[0], res.Ranks[1]
	if hub <= 10*leaf {
		t.Errorf("hub rank %v not dominating leaf rank %v", hub, leaf)
	}
	for v := 2; v < 100; v++ {
		if math.Abs(float64(res.Ranks[v]-leaf)) > 1e-6 {
			t.Errorf("leaves should have equal rank: %v vs %v", res.Ranks[v], leaf)
			break
		}
	}
}

func TestPageRankEmptyAndIsolated(t *testing.T) {
	empty := PageRank(testDev(), graph.FromEdges(0, nil), PageRankOptions{})
	if len(empty.Ranks) != 0 {
		t.Error("empty graph produced ranks")
	}
	iso := PageRank(testDev(), graph.FromEdges(4, nil), PageRankOptions{})
	for _, r := range iso.Ranks {
		if math.Abs(float64(r)-0.25) > 1e-5 {
			t.Errorf("isolated ranks = %v, want uniform 0.25", iso.Ranks)
			break
		}
	}
}

func TestConnectedComponentsMatchesCPU(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"two-paths": graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}}),
		"gnm":       gen.GNM(300, 400, 7),
		"grid":      gen.Grid2D(9, 9),
		"isolated":  graph.FromEdges(5, nil),
	} {
		res := ConnectedComponents(testDev(), g)
		want := ConnectedComponentsCPU(g)
		for v := range want {
			if res.Labels[v] != want[v] {
				t.Errorf("%s: label[%d] = %d, want %d", name, v, res.Labels[v], want[v])
				break
			}
		}
	}
}

func TestConnectedComponentsCounts(t *testing.T) {
	g := graph.FromEdges(7, [][2]int32{{0, 1}, {2, 3}, {3, 4}})
	res := ConnectedComponents(testDev(), g)
	if res.NumComponents != 4 { // {0,1}, {2,3,4}, {5}, {6}
		t.Errorf("NumComponents = %d, want 4", res.NumComponents)
	}
}

func TestStatsEvidence(t *testing.T) {
	g := gen.RMAT(9, 8, gen.Graph500, 1)
	res, err := BFS(testDev(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Stats.SIMDUtilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	if imb := res.Stats.WavefrontImbalance(); imb < 1 {
		t.Errorf("wavefront imbalance = %v, want >= 1", imb)
	}
	var sum int64
	for _, c := range res.Stats.KernelCycles {
		sum += c
	}
	if sum != res.Stats.Cycles {
		t.Errorf("kernel cycles %d != total %d", sum, res.Stats.Cycles)
	}
}

// Property: GPU results equal CPU references on arbitrary graphs.
func TestAppsMatchCPUProperty(t *testing.T) {
	dev := testDev()
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%60 + 2
		g := gen.GNM(n, 3*n, seed)
		bfs, err := BFS(dev, g, 0)
		if err != nil {
			return false
		}
		wantL := BFSCPU(g, 0)
		for v := range wantL {
			if bfs.Levels[v] != wantL[v] {
				return false
			}
		}
		cc := ConnectedComponents(dev, g)
		wantC := ConnectedComponentsCPU(g)
		for v := range wantC {
			if cc.Labels[v] != wantC[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBFSDeterministic: both BFS variants report the same simulated
// evidence whatever the host parallelism. Their expand and partition
// kernels claim vertices and append them to worklists through atomics,
// so the slots, and with them the costed stores, follow workgroup order;
// a device pinned to one phase-A worker is the reference. CI runs this at
// -cpu 1,2,4, where the unpinned device uses that many workers.
func TestBFSDeterministic(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(11, 16, gen.Graph500, 2),
		"gnm":  gen.GNM(3000, 12000, 3),
		"star": gen.Star(2000),
	}
	variants := map[string]func(*simt.Device, *graph.Graph) (*BFSResult, error){
		"bfs":    func(d *simt.Device, g *graph.Graph) (*BFSResult, error) { return BFS(d, g, 0) },
		"hybrid": func(d *simt.Device, g *graph.Graph) (*BFSResult, error) { return BFSHybrid(d, g, 0, 0) },
	}
	for gname, g := range graphs {
		for vname, run := range variants {
			ref := testDev()
			ref.Workers = 1
			want, err := run(ref, g)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				got, err := run(testDev(), g)
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats.Cycles != want.Stats.Cycles || !maps.Equal(got.Stats.KernelCycles, want.Stats.KernelCycles) {
					t.Fatalf("%s/%s run %d: cycles %d %v, one worker %d %v", gname, vname, i,
						got.Stats.Cycles, got.Stats.KernelCycles, want.Stats.Cycles, want.Stats.KernelCycles)
				}
				if !slices.Equal(got.Stats.WavefrontWork, want.Stats.WavefrontWork) {
					t.Fatalf("%s/%s run %d: per-wavefront work differs from one worker's", gname, vname, i)
				}
			}
		}
	}
}
