package exp

import (
	"flag"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) < 5 {
		t.Fatalf("only %d datasets registered", len(ds))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if seen[d.Name] {
			t.Errorf("duplicate dataset name %q", d.Name)
		}
		seen[d.Name] = true
		g := d.Build(Small)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if g.NumVertices() == 0 {
			t.Errorf("%s: empty graph", d.Name)
		}
		big := d.Build(Full)
		if big.NumVertices() <= g.NumVertices() {
			t.Errorf("%s: Full (%d vertices) not larger than Small (%d)",
				d.Name, big.NumVertices(), g.NumVertices())
		}
	}
}

func TestDatasetByName(t *testing.T) {
	if _, ok := DatasetByName("rmat"); !ok {
		t.Error("rmat dataset missing")
	}
	if _, ok := DatasetByName("nope"); ok {
		t.Error("unknown dataset found")
	}
}

func TestDatasetStructuralContrast(t *testing.T) {
	// The registry must span the degree-variance axis: rmat skewed, grid
	// uniform. This contrast is what every figure relies on.
	rmat, _ := DatasetByName("rmat")
	grid, _ := DatasetByName("grid2d")
	rs := rmat.Build(Small).Stats()
	gs := grid.Build(Small).Stats()
	if rs.CV < 3*gs.CV {
		t.Errorf("rmat CV %.2f not clearly above grid CV %.2f", rs.CV, gs.CV)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:     "TX",
		Title:  "demo",
		Note:   "a note",
		Header: []string{"name", "value"},
	}
	tb.Add("alpha", "1")
	tb.Add("b", "22")
	s := tb.String()
	for _, want := range []string{"== TX: demo ==", "(a note)", "name", "alpha", "22"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	// Numeric column right-aligned: "22" should line up at the right edge.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, "22") {
		t.Errorf("numeric column not right-aligned: %q", last)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "TX", Title: "demo", Header: []string{"a", "b"}}
	tb.Add("x", "1")
	tb.Add("y,z", "2") // comma must be quoted
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"# TX: demo\n", "a,b\n", "x,1\n", "\"y,z\",2\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("CSV missing %q:\n%s", want, got)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("F99", Config{Scale: Small}); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment entry %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9"} {
		if !ids[want] {
			t.Errorf("experiment %s missing from registry", want)
		}
	}
}

// update rewrites testdata/small.golden from this run instead of
// comparing with it: go test ./internal/exp -run TestAllExperimentsRunAtSmallScale -update
var update = flag.Bool("update", false, "rewrite testdata/small.golden")

const smallGolden = "testdata/small.golden"

// smallRun is one RunAll at Small scale: its text, each experiment's
// tables in order, and its error.
type smallRun struct {
	out  string
	exps []Experiment
	tabs [][]*Table
	err  error
}

// smallRuns keeps the Small run per GOMAXPROCS, so the two tests below
// share one run of the harness (the slowest thing in this package) while
// `-cpu 1,2` still runs it once at each setting.
var smallRuns = map[int]*smallRun{}

func runSmall() *smallRun {
	procs := runtime.GOMAXPROCS(0)
	if r, ok := smallRuns[procs]; ok {
		return r
	}
	r := &smallRun{}
	var sb strings.Builder
	r.err = runAll(Config{Scale: Small}, &sb, func(e Experiment, tables []*Table) {
		r.exps = append(r.exps, e)
		r.tabs = append(r.tabs, tables)
	})
	r.out = sb.String()
	smallRuns[procs] = r
	return r
}

// TestAllExperimentsRunAtSmallScale checks the complete harness at Small
// scale — the integration test of the whole stack: generators ->
// simulator -> algorithms -> metrics. Every experiment must produce
// well-formed tables, and RunAll's text must match testdata/small.golden
// byte for byte. Simulated cycles are the paper's metric and do not
// depend on the host, so a change to a cost-model constant, a generator
// seed or a kernel's access pattern fails here; a change that moves them
// on purpose regenerates the file with -update, and the moved rows show in
// its diff.
func TestAllExperimentsRunAtSmallScale(t *testing.T) {
	r := runSmall()
	if r.err != nil {
		t.Fatalf("RunAll: %v", r.err)
	}
	for i, e := range r.exps {
		tables := r.tabs[i]
		if len(tables) == 0 {
			t.Errorf("%s: no tables produced", e.ID)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Errorf("%s: empty table %q", e.ID, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Errorf("%s: row width %d != header width %d", e.ID, len(row), len(tb.Header))
					break
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(smallGolden, []byte(r.out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(smallGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if r.out == string(want) {
		return
	}
	got, exp := strings.Split(r.out, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("Small-scale output differs from %s at line %d:\n got: %q\nwant: %q\n(a deliberate change regenerates the file with -update)", smallGolden, i+1, g, e)
		}
	}
}

// TestRunAllWrites checks that RunAll writes every experiment's tables.
func TestRunAllWrites(t *testing.T) {
	r := runSmall()
	if r.err != nil {
		t.Fatalf("RunAll: %v", r.err)
	}
	for _, id := range []string{"T1", "F1", "F5", "F7", "F9"} {
		if !strings.Contains(r.out, "== "+id) {
			t.Errorf("RunAll output missing experiment %s", id)
		}
	}
}

// TestHeadlineShapeSmall asserts the reproduction's core claims hold even at
// Small scale: the hybrid clearly beats the baseline on the scale-free
// input and is not catastrophically worse on the mesh.
func TestHeadlineShapeSmall(t *testing.T) {
	tables, err := FigHeadline(Config{Scale: Small})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	var rmatGain, gridGain float64
	for _, row := range tb.Rows {
		g, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("bad gain cell %q: %v", row[5], err)
		}
		switch row[0] {
		case "rmat":
			rmatGain = g
		case "grid2d":
			gridGain = g
		}
	}
	// Small-scale gains are muted (the per-workgroup cache absorbs much of
	// the hub traffic on a 1k-vertex graph); the Full-scale gains recorded
	// in EXPERIMENTS.md are the real comparison.
	if rmatGain < 8 {
		t.Errorf("hybrid gain on rmat = %.1f%%, want >= 8%%", rmatGain)
	}
	if gridGain < -15 {
		t.Errorf("hybrid gain on grid2d = %.1f%%, want > -15%%", gridGain)
	}
}
