package main

import (
	"fmt"

	"gcolor/internal/graph"
)

// checker verifies answers after timing stops. It uses its own coloring
// oracle over the graph the benchmark sent (or, for delta chains, over
// the benchmark's own edge-set model), not the program's color.Verify.
type checker struct {
	first      map[string]uint64 // key -> colors hash of its first answer
	violations []string
}

func newChecker() *checker { return &checker{first: make(map[string]uint64)} }

func (ck *checker) fail(format string, args ...any) {
	ck.violations = append(ck.violations, fmt.Sprintf(format, args...))
}

type edgeIter func(fn func(u, v int32) bool)

func graphEdges(g *graph.Graph) edgeIter {
	return func(fn func(u, v int32) bool) {
		off, adj := g.Offsets(), g.Adj()
		for v := 0; v < g.NumVertices(); v++ {
			for _, u := range adj[off[v]:off[v+1]] {
				if int32(v) < u && !fn(int32(v), u) {
					return
				}
			}
		}
	}
}

// properColoring checks that colors colors every one of n vertices and no
// edge joins two vertices of one color.
func properColoring(n int, colors []int32, edges edgeIter) error {
	if len(colors) != n {
		return fmt.Errorf("%d colors for %d vertices", len(colors), n)
	}
	for v, c := range colors {
		if c < 0 {
			return fmt.Errorf("vertex %d uncolored", v)
		}
	}
	var bad error
	edges(func(u, v int32) bool {
		if colors[u] == colors[v] {
			bad = fmt.Errorf("edge %d-%d monochromatic (color %d)", u, v, colors[u])
		}
		return bad == nil
	})
	return bad
}

func maxPlusOne(colors []int32) int {
	m := int32(-1)
	for _, c := range colors {
		if c > m {
			m = c
		}
	}
	return int(m) + 1
}

// same records the first answer's hash under key and flags every later
// answer under that key whose colors differ: cache hits, coalesced waits
// and idempotent retries must return the first answer byte for byte.
func (ck *checker) same(a *answer) {
	want, ok := ck.first[a.key]
	if !ok {
		ck.first[a.key] = a.hash
		return
	}
	if a.hash != want {
		ck.fail("%s: conn %d seq %d returned colors that differ from the first answer (retry=%v cached=%v)",
			a.key, a.conn, a.seq, a.retry, a.res.Cached)
	}
}

// graphOf returns the graph a answer's request sent.
func graphOf(a *answer) *graph.Graph {
	if a.graph != nil {
		return a.graph
	}
	return mustSpec(a.spec)
}

// coloring checks one fully kept coloring against the graph it was for:
// proper, the claimed palette size, and the claimed fingerprint.
func (ck *checker) coloring(a *answer) {
	g := graphOf(a)
	if err := properColoring(g.NumVertices(), a.colors, graphEdges(g)); err != nil {
		ck.fail("%s: improper coloring: %v", a.key, err)
		return
	}
	if n := maxPlusOne(a.colors); n != a.res.NumColors {
		ck.fail("%s: num_colors %d, coloring uses %d", a.key, a.res.NumColors, n)
	}
	if fp := graph.FingerprintString(g.Fingerprint()); a.res.Fingerprint != fp {
		ck.fail("%s: fingerprint %s, graph sent has %s", a.key, a.res.Fingerprint, fp)
	}
}

// answers checks warm-up and run answers in a fixed order. Failed
// requests are counted by the caller, not here.
func (ck *checker) answers(warm []*answer, rr *runResult) {
	for _, a := range warm {
		if a.err == nil {
			ck.coloring(a)
			ck.same(a)
		}
	}
	for c := range rr.answers {
		for _, a := range rr.answers[c] {
			if a.err != nil || a.chain >= 0 {
				continue
			}
			if a.colors != nil {
				ck.coloring(a)
			}
			ck.same(a)
		}
	}
}

// chains checks every delta answer against the benchmark's own model of
// the successor: the base's edges with each step's edits applied, and the
// answer's colors rebuilt from the previous answer's plus its diff.
func (ck *checker) chains(in *deltaInputs, warm []*answer, rr *runResult) {
	for _, h := range warm {
		if h.chain < 0 || h.err != nil {
			continue
		}
		ch := in.chains[h.chain]
		model := newEdgeSet(ch.base)
		colors := append([]int32(nil), h.colors...)
		for i, a := range rr.answers[h.chain] {
			if a.err != nil {
				break
			}
			model.apply(ch.steps[i])
			for j := 0; j+1 < len(a.diff); j += 2 {
				v := int(a.diff[j])
				for len(colors) <= v {
					colors = append(colors, -1)
				}
				colors[v] = a.diff[j+1]
			}
			if err := properColoring(model.n, colors, model.forEdges); err != nil {
				ck.fail("%s: improper for the modelled successor: %v", a.key, err)
				break
			}
			if a.res.Vertices != model.n || a.res.Edges != len(model.edges) {
				ck.fail("%s: answer is for %d vertices / %d edges, model has %d / %d",
					a.key, a.res.Vertices, a.res.Edges, model.n, len(model.edges))
				break
			}
			if n := maxPlusOne(colors); n != a.res.NumColors {
				ck.fail("%s: num_colors %d, coloring uses %d", a.key, a.res.NumColors, n)
			}
			if hashColors(colors) != a.hash {
				ck.fail("%s: colors rebuilt from the diffs differ from the answer", a.key)
			}
		}
	}
}
