package gen

import (
	"testing"
	"testing/quick"

	"gcolor/internal/graph"
)

func validate(t *testing.T, g *graph.Graph, name string) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: invalid graph: %v", name, err)
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, Graph500, 42)
	validate(t, g, "rmat")
	if g.NumVertices() != 1024 {
		t.Errorf("NumVertices = %d, want 1024", g.NumVertices())
	}
	// Dedup removes some edges, but most should survive.
	if g.NumEdges() < 1024 || g.NumEdges() > 8*1024 {
		t.Errorf("NumEdges = %d, out of plausible range", g.NumEdges())
	}
	// Scale-free: degree CV must be high (the point of R-MAT here).
	if st := g.Stats(); st.CV < 0.8 {
		t.Errorf("RMAT degree CV = %.2f, want >= 0.8 (scale-free)", st.CV)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(8, 4, Graph500, 1)
	b := RMAT(8, 4, Graph500, 1)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	c := RMAT(8, 4, Graph500, 2)
	if a.NumEdges() == c.NumEdges() && a.MaxDegree() == c.MaxDegree() && a.Stats().CV == c.Stats().CV {
		t.Error("different seeds produced identical graphs (suspicious)")
	}
}

func TestRMATPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RMAT(-1) did not panic")
		}
	}()
	RMAT(-1, 4, Graph500, 0)
}

func TestGNM(t *testing.T) {
	g := GNM(500, 2000, 7)
	validate(t, g, "gnm")
	if g.NumVertices() != 500 {
		t.Errorf("NumVertices = %d, want 500", g.NumVertices())
	}
	if g.NumEdges() < 1800 || g.NumEdges() > 2000 {
		t.Errorf("NumEdges = %d, want close to 2000", g.NumEdges())
	}
	// Uniform random: low CV.
	if st := g.Stats(); st.CV > 0.6 {
		t.Errorf("GNM degree CV = %.2f, want < 0.6 (uniform)", st.CV)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(5, 7)
	validate(t, g, "grid2d")
	if g.NumVertices() != 35 {
		t.Errorf("NumVertices = %d, want 35", g.NumVertices())
	}
	// Edge count for a rows x cols grid: rows*(cols-1) + cols*(rows-1).
	want := 5*6 + 7*4
	if g.NumEdges() != want {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	if g.MaxDegree() != 4 {
		t.Errorf("MaxDegree = %d, want 4", g.MaxDegree())
	}
	// Corner vertex 0 has degree 2.
	if g.Degree(0) != 2 {
		t.Errorf("corner degree = %d, want 2", g.Degree(0))
	}
}

func TestGrid3D(t *testing.T) {
	g := Grid3D(3, 4, 5)
	validate(t, g, "grid3d")
	if g.NumVertices() != 60 {
		t.Errorf("NumVertices = %d, want 60", g.NumVertices())
	}
	want := 2*4*5 + 3*3*5 + 3*4*4
	if g.NumEdges() != want {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	if g.MaxDegree() != 6 {
		t.Errorf("MaxDegree = %d, want 6", g.MaxDegree())
	}
}

func TestRandomGeometric(t *testing.T) {
	g := RandomGeometric(2000, 0.05, 3)
	validate(t, g, "geo")
	mean := g.AvgDegree()
	expected := ExpectedGeometricDegree(2000, 0.05)
	// Boundary effects push the realized mean below the expectation.
	if mean < 0.5*expected || mean > 1.2*expected {
		t.Errorf("mean degree %.2f far from expected %.2f", mean, expected)
	}
	// Every edge must respect the radius: spot-check via re-embedding is not
	// possible (coords are internal), but spatial graphs must have low CV.
	if st := g.Stats(); st.CV > 0.8 {
		t.Errorf("geometric degree CV = %.2f, want < 0.8", st.CV)
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(300, 6, 0.1, 5)
	validate(t, g, "ws")
	if g.NumVertices() != 300 {
		t.Errorf("NumVertices = %d, want 300", g.NumVertices())
	}
	// Each vertex initiates k/2 edges; rewiring + dedup can only lose a few.
	if g.NumEdges() < 850 || g.NumEdges() > 900 {
		t.Errorf("NumEdges = %d, want ~900", g.NumEdges())
	}
}

func TestWattsStrogatzPanics(t *testing.T) {
	for _, c := range []struct{ n, k int }{{10, 3}, {4, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WattsStrogatz(%d,%d) did not panic", c.n, c.k)
				}
			}()
			WattsStrogatz(c.n, c.k, 0.1, 0)
		}()
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(1000, 4, 9)
	validate(t, g, "ba")
	if g.NumVertices() != 1000 {
		t.Errorf("NumVertices = %d, want 1000", g.NumVertices())
	}
	// Power-law tail: max degree far above mean.
	st := g.Stats()
	if st.MaxOverAvg < 3 {
		t.Errorf("BA max/avg = %.2f, want >= 3 (hub formation)", st.MaxOverAvg)
	}
	// Every non-seed vertex attached m edges.
	minEdges := (1000 - 5) * 4
	if g.NumEdges() < minEdges {
		t.Errorf("NumEdges = %d, want >= %d", g.NumEdges(), minEdges)
	}
}

// TestBarabasiAlbertDeterministic: equal arguments build the same graph.
// The chosen set of each new vertex feeds every later draw, so visiting
// it in map order once made each call a different graph.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	for _, c := range []struct {
		n, m int
		seed int64
	}{{10, 2, 1}, {64, 3, 7}, {1000, 4, 9}, {1024, 8, 2}} {
		want := BarabasiAlbert(c.n, c.m, c.seed).Fingerprint()
		for i := 0; i < 3; i++ {
			if got := BarabasiAlbert(c.n, c.m, c.seed).Fingerprint(); got != want {
				t.Fatalf("BarabasiAlbert(%d, %d, %d) call %d: fingerprint %016x, first call %016x",
					c.n, c.m, c.seed, i+2, got, want)
			}
		}
	}
	// Pins the generator itself: graphgen -type ba, ba: graph specs and
	// the powerlaw experiment dataset all depend on it.
	if got, want := BarabasiAlbert(10, 2, 1).Fingerprint(), uint64(0xd66e663a0f71f3b9); got != want {
		t.Errorf("BarabasiAlbert(10, 2, 1) fingerprint %#016x, want %#016x", got, want)
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BarabasiAlbert(m>=n) did not panic")
		}
	}()
	BarabasiAlbert(3, 3, 0)
}

func TestStarPathCycleComplete(t *testing.T) {
	s := Star(10)
	validate(t, s, "star")
	if s.Degree(0) != 9 || s.Degree(5) != 1 {
		t.Errorf("star degrees wrong: hub=%d leaf=%d", s.Degree(0), s.Degree(5))
	}
	p := Path(10)
	validate(t, p, "path")
	if p.NumEdges() != 9 || p.Degree(0) != 1 || p.Degree(5) != 2 {
		t.Errorf("path shape wrong")
	}
	c := Cycle(10)
	validate(t, c, "cycle")
	if c.NumEdges() != 10 || c.MaxDegree() != 2 {
		t.Errorf("cycle shape wrong")
	}
	k := Complete(6)
	validate(t, k, "complete")
	if k.NumEdges() != 15 || k.MaxDegree() != 5 {
		t.Errorf("complete shape wrong")
	}
}

func TestCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cycle(2) did not panic")
		}
	}()
	Cycle(2)
}

// Property: every generator output passes graph validation for arbitrary
// small parameters.
func TestGeneratorsAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%60 + 10
		graphs := []*graph.Graph{
			GNM(n, 3*n, seed),
			WattsStrogatz(n, 4, 0.3, seed),
			BarabasiAlbert(n, 2, seed),
			RandomGeometric(n, 0.2, seed),
		}
		for _, g := range graphs {
			if g.Validate() != nil {
				return false
			}
			if g.NumVertices() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
