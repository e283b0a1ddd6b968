package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fnvInt32Bytewise is the byte-serial FNV-1a step the fingerprint was
// defined with: four XOR-multiply rounds per int32, little-endian.
func fnvInt32Bytewise(h uint64, v int32) uint64 {
	u := uint32(v)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(u >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

// applyDeltaReference is the whole-graph ApplyDelta the row-run build
// replaced: one merge over every row, a bytewise fingerprint pass, and a
// frontier scan over a per-vertex flag array. It is the oracle the
// production build must match bit for bit.
func applyDeltaReference(g *Graph, d *Delta) (*Graph, uint64, []int32, error) {
	n := g.NumVertices()
	if d.AddVertices < 0 {
		return nil, 0, nil, fmt.Errorf("graph: delta: negative AddVertices %d", d.AddVertices)
	}
	newN := n + d.AddVertices
	if newN > MaxVertices {
		return nil, 0, nil, fmt.Errorf("graph: delta: %d vertices exceeds limit %d", newN, MaxVertices)
	}
	addArcs, err := deltaArcs(d.AddEdges, newN, "add")
	if err != nil {
		return nil, 0, nil, err
	}
	remArcs, err := deltaArcs(d.RemoveEdges, newN, "remove")
	if err != nil {
		return nil, 0, nil, err
	}
	inFrontier := make([]bool, newN)
	effAdd := 0
	for _, a := range addArcs {
		if int(a[0]) >= n || !g.HasEdge(a[0], a[1]) {
			effAdd++
			inFrontier[a[0]] = true
		}
	}
	effRem := 0
	for _, r := range remArcs {
		if int(r[0]) < n && g.HasEdge(r[0], r[1]) && !arcListHas(addArcs, r) {
			effRem++
			inFrontier[r[0]] = true
		}
	}
	for v := n; v < newN; v++ {
		inFrontier[v] = true
	}
	newM := g.NumArcs() + effAdd - effRem
	buf := make([]int32, newN+1+newM)
	offsets := buf[: newN+1 : newN+1]
	adj := buf[newN+1 : newN+1]
	ai, ri := 0, 0
	for v := int32(0); int(v) < newN; v++ {
		offsets[v] = int32(len(adj))
		var base []int32
		if int(v) < n {
			base = g.Neighbors(v)
		}
		bi := 0
		for bi < len(base) || (ai < len(addArcs) && addArcs[ai][0] == v) {
			var next int32
			fromAdd := false
			if bi < len(base) && (ai >= len(addArcs) || addArcs[ai][0] != v || base[bi] <= addArcs[ai][1]) {
				next = base[bi]
				if ai < len(addArcs) && addArcs[ai][0] == v && addArcs[ai][1] == next {
					ai++
					fromAdd = true
				}
				bi++
			} else {
				next = addArcs[ai][1]
				ai++
				fromAdd = true
			}
			for ri < len(remArcs) && (remArcs[ri][0] < v || (remArcs[ri][0] == v && remArcs[ri][1] < next)) {
				ri++
			}
			if !fromAdd && ri < len(remArcs) && remArcs[ri][0] == v && remArcs[ri][1] == next {
				continue
			}
			adj = append(adj, next)
		}
	}
	offsets[newN] = int32(len(adj))
	if len(adj) != newM {
		panic(fmt.Sprintf("reference: merged %d arcs, counted %d", len(adj), newM))
	}
	fp := fnvInt32Bytewise(fnvOffset64, int32(newN))
	for _, o := range offsets {
		fp = fnvInt32Bytewise(fp, o)
	}
	for _, a := range adj {
		fp = fnvInt32Bytewise(fp, a)
	}
	frontier := make([]int32, 0, 2*d.Size()+d.AddVertices)
	for v := int32(0); int(v) < newN; v++ {
		if inFrontier[v] {
			frontier = append(frontier, v)
		}
	}
	return &Graph{offsets: offsets, adj: adj}, fp, frontier, nil
}

// checkAgainstReference applies a valid delta both ways and requires
// identical offsets, adjacency, fingerprint, and frontier.
func checkAgainstReference(t *testing.T, name string, g *Graph, d *Delta) {
	t.Helper()
	ng, fp, frontier, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rg, rfp, rfrontier, err := applyDeltaReference(g, d)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !slices.Equal(ng.offsets, rg.offsets) {
		t.Fatalf("%s: offsets differ from the reference merge\n got %v\nwant %v", name, ng.offsets, rg.offsets)
	}
	if !slices.Equal(ng.adj, rg.adj) {
		t.Fatalf("%s: adjacency differs from the reference merge\n got %v\nwant %v", name, ng.adj, rg.adj)
	}
	if fp != rfp {
		t.Fatalf("%s: fingerprint %016x, reference %016x", name, fp, rfp)
	}
	if !slices.Equal(frontier, rfrontier) {
		t.Fatalf("%s: frontier %v, reference %v", name, frontier, rfrontier)
	}
}

// randomEdge draws an edge of two distinct endpoints below n.
func randomEdge(rng *rand.Rand, n int) [2]int32 {
	u := rng.Int31n(int32(n))
	v := rng.Int31n(int32(n))
	for v == u {
		v = rng.Int31n(int32(n))
	}
	if rng.Intn(2) == 0 {
		return [2]int32{v, u}
	}
	return [2]int32{u, v}
}

// absentEdge returns the non-edge {v, u} of g with the smallest u.
func absentEdge(g *Graph, v int32) [2]int32 {
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		if u != v && !g.HasEdge(v, u) {
			return [2]int32{v, u}
		}
	}
	panic("vertex is adjacent to every other vertex")
}

// presentEdges lists g's undirected edges as (min, max) pairs.
func presentEdges(g *Graph) [][2]int32 {
	var out [][2]int32
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				out = append(out, [2]int32{v, u})
			}
		}
	}
	return out
}

func TestApplyDeltaMatchesReferenceMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(60)
		g := randomGraph(t, n, rng.Intn(4*n), rng.Int63())
		present := presentEdges(g)
		d := &Delta{AddVertices: rng.Intn(4)}
		newN := n + d.AddVertices
		if newN < 2 {
			d.AddVertices++
			newN++
		}
		for i := rng.Intn(12); i > 0; i-- {
			d.AddEdges = append(d.AddEdges, randomEdge(rng, newN))
		}
		for i := rng.Intn(12); i > 0; i-- {
			d.RemoveEdges = append(d.RemoveEdges, randomEdge(rng, newN))
		}
		// Adds of present edges and removes of present ones, some of each
		// also in the other list (remove-then-add).
		for i := rng.Intn(4); i > 0 && len(present) > 0; i-- {
			e := present[rng.Intn(len(present))]
			switch rng.Intn(3) {
			case 0:
				d.AddEdges = append(d.AddEdges, e)
			case 1:
				d.RemoveEdges = append(d.RemoveEdges, e)
			default:
				d.AddEdges = append(d.AddEdges, e)
				d.RemoveEdges = append(d.RemoveEdges, [2]int32{e[1], e[0]})
			}
		}
		checkAgainstReference(t, fmt.Sprintf("random %d", iter), g, d)
	}

	g := randomGraph(t, 40, 250, 7)
	last := int32(g.NumVertices() - 1)
	present := presentEdges(g)
	cases := []struct {
		name string
		g    *Graph
		d    *Delta
	}{
		{"empty delta", g, &Delta{}},
		{"empty delta on empty graph", &Graph{}, &Delta{}},
		{"appended vertices only", g, &Delta{AddVertices: 3}},
		{"appended vertices on empty graph", &Graph{}, &Delta{AddVertices: 3, AddEdges: [][2]int32{{0, 2}}}},
		{"edits whose only source is appended", g, &Delta{
			AddVertices: 2,
			AddEdges:    [][2]int32{{40, 41}},
			RemoveEdges: [][2]int32{{41, 40}},
		}},
		{"appended vertex wired to the base", g, &Delta{AddVertices: 1, AddEdges: [][2]int32{{0, 40}, {last, 40}}}},
		{"first vertex", g, &Delta{
			AddEdges:    [][2]int32{absentEdge(g, 0)},
			RemoveEdges: [][2]int32{{0, g.Neighbors(0)[0]}},
		}},
		{"last vertex", g, &Delta{
			AddEdges:    [][2]int32{absentEdge(g, last)},
			RemoveEdges: [][2]int32{{g.Neighbors(last)[0], last}},
		}},
		{"adds of present edges", g, &Delta{AddEdges: present[:5]}},
		{"removes of absent edges", g, &Delta{RemoveEdges: [][2]int32{absentEdge(g, 0), absentEdge(g, 5), absentEdge(g, 9)}}},
	}
	// A delta that touches every row.
	all := &Delta{AddVertices: 1}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		all.AddEdges = append(all.AddEdges, [2]int32{v, last + 1})
		if nb := g.Neighbors(v); len(nb) > 0 {
			all.RemoveEdges = append(all.RemoveEdges, [2]int32{v, nb[0]})
		}
	}
	cases = append(cases, struct {
		name string
		g    *Graph
		d    *Delta
	}{"every row", g, all})
	for _, c := range cases {
		checkAgainstReference(t, c.name, c.g, c.d)
	}
}

func TestFnvFoldMatchesBytewise(t *testing.T) {
	// Every byte-length class, both sides of each boundary, and negative
	// values (whose high byte is never zero).
	vals := []int32{0, 1, 0x7f, 0xff, 0x100, 0x1234, 0xffff, 0x10000, 0x123456,
		0xffffff, 0x1000000, 0x1000001, 0x7fffffff, -1, -2, -0x100, -0x10000, math.MinInt32}
	rng := rand.New(rand.NewSource(5))
	for _, bits := range []int{8, 16, 24, 31} {
		for i := 0; i < 64; i++ {
			vals = append(vals, int32(rng.Int63n(1<<bits)))
		}
	}
	for i := 0; i < 64; i++ {
		vals = append(vals, int32(rng.Uint32()))
	}
	for _, h0 := range []uint64{fnvOffset64, 0, ^uint64(0), rng.Uint64()} {
		want := h0
		for _, v := range vals {
			if got, one := fnvInt32s(h0, []int32{v}), fnvInt32Bytewise(h0, v); got != one {
				t.Fatalf("state %016x, value %#x: folded %016x, bytewise %016x", h0, v, got, one)
			}
			want = fnvInt32Bytewise(want, v)
		}
		if got := fnvInt32s(h0, vals); got != want {
			t.Fatalf("state %016x: folded slice %016x, bytewise %016x", h0, got, want)
		}
		if got := fnvInt32s(h0, nil); got != h0 {
			t.Fatalf("empty slice changed the state")
		}
	}
}
