package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := "# a comment\n# n 6\n0 1\n1 2\n\n% another comment\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 6 {
		t.Errorf("NumVertices = %d, want 6 (from directive)", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",
		"a b\n",
		"0 x\n",
		"-1 2\n",
		"0 99999999999999999999\n", // overflows int32
		"0 268435456\n",            // exceeds MaxVertices
		"# n 999999999999\n0 1\n",  // declared count exceeds MaxVertices
		"0 9999999999\n",           // exceeds int32 range via ParseInt
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", in)
		}
	}
}

// TestEdgeListLineLimit: a line of 1<<22 bytes or more, its '\r' counted
// and its '\n' not, fails with bufio.ErrTooLong on both entry points, as
// it does through bufio.Scanner in the reference; a byte shorter parses,
// terminated or not, and an error on an earlier line comes first.
func TestEdgeListLineLimit(t *testing.T) {
	line := func(n int) string { return "0 1" + strings.Repeat(" ", n-3) }
	const limit = 1 << 22
	for i, c := range []struct {
		in      string
		tooLong bool
	}{
		{"2 3\n" + line(limit-1) + "\n4 5\n", false},
		{"2 3\n" + line(limit-1), false},
		{"2 3\n" + line(limit) + "\n4 5\n", true},
		{"2 3\n" + line(limit), true},
		{line(limit-2) + "\r\n", false},
		{line(limit-1) + "\r\n", true},
		{"x\n" + line(limit+5), false},
	} {
		in := c.in
		want, werr := readEdgeListReference(strings.NewReader(in), MaxVertices)
		if errors.Is(werr, bufio.ErrTooLong) != c.tooLong {
			t.Fatalf("case %d: reference error %v, want too long %v", i, werr, c.tooLong)
		}
		for name, parse := range map[string]func() (*Graph, error){
			"reader": func() (*Graph, error) { return ReadEdgeList(strings.NewReader(in)) },
			"string": func() (*Graph, error) { return ParseEdgeList(in) },
		} {
			g, err := parse()
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Errorf("case %d %s: error %v, reference %v", i, name, err, werr)
			} else if err == nil && !sameGraph(g, want) {
				t.Errorf("case %d %s: graph differs from the reference", i, name)
			}
		}
	}
}

// TestParserLimitsBoundAllocation: hostile size declarations must be
// rejected by every parser before any proportional allocation happens.
func TestParserLimitsBoundAllocation(t *testing.T) {
	if _, err := readEdgeListLimit(strings.NewReader("0 5000\n"), 100); err == nil {
		t.Error("edge list: id over the cap accepted")
	}
	if _, err := readDIMACSLimit(strings.NewReader("p edge 5000 0\n"), 100); err == nil {
		t.Error("dimacs: vertex count over the cap accepted")
	}
	if _, err := readMatrixMarketLimit(strings.NewReader("%%MatrixMarket matrix coordinate pattern general\n5000 5000 0\n"), 100); err == nil {
		t.Error("mtx: dimension over the cap accepted")
	}
	// At exactly the cap all three still parse.
	if _, err := readEdgeListLimit(strings.NewReader("0 99\n"), 100); err != nil {
		t.Errorf("edge list at the cap rejected: %v", err)
	}
	if _, err := readDIMACSLimit(strings.NewReader("p edge 100 0\n"), 100); err != nil {
		t.Errorf("dimacs at the cap rejected: %v", err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := FromEdges(30, randomEdges(rng, 30, 100))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	assertSameGraph(t, g, back)
}

func TestReadDIMACS(t *testing.T) {
	in := "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadDIMACS: %v", err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Errorf("got n=%d m=%d, want 4, 3", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Error("expected edges missing (1-based conversion broken?)")
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	cases := []string{
		"e 1 2\n",                  // edge before problem line
		"p edge 2 1\ne 1 3\n",      // out of range
		"p edge 2 1\np edge 2 1\n", // duplicate problem line
		"p edge\n",                 // malformed problem line
		"p edge 2 1\ne 1\n",        // malformed edge
		"p edge 2 1\nq 1 2\n",      // unknown record
		"p edge x 1\n",             // bad count
		"",                         // missing problem line
		"p edge 2 1\ne one two\n",  // non-numeric edge
	}
	for _, in := range cases {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("ReadDIMACS(%q) succeeded, want error", in)
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := FromEdges(25, randomEdges(rng, 25, 80))
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatalf("WriteDIMACS: %v", err)
	}
	back, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatalf("ReadDIMACS: %v", err)
	}
	assertSameGraph(t, g, back)
}

func TestReadMatrixMarket(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% comment
3 3 3
1 2
2 3
1 1
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadMatrixMarket: %v", err)
	}
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (diagonal dropped)", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("expected edges missing")
	}
}

func TestReadMatrixMarketRealField(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 3.5\n2 1 3.5\n"
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadMatrixMarket: %v", err)
	}
	if !g.HasEdge(0, 1) {
		t.Error("edge missing from real-valued matrix")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 9\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n",
		"%%MatrixMarket matrix coordinate pattern general\nx y z\n",
		"%%MatrixMarket matrix coordinate pattern general\n",
		"%%MatrixMarket matrix coordinate pattern general\n-5 -5 1\n", // negative dims must not reach NewBuilder
		"%%MatrixMarket matrix coordinate pattern general\n999999999999 999999999999 1\n",
	}
	for _, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("ReadMatrixMarket(%q) succeeded, want error", in)
		}
	}
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("graphs differ: n=%d/%d m=%d/%d",
			a.NumVertices(), b.NumVertices(), a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(int32(v)), b.Neighbors(int32(v))
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree differs: %d vs %d", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d adjacency differs at %d: %d vs %d", v, i, na[i], nb[i])
			}
		}
	}
}
