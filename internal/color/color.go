// Package color implements CPU graph-coloring algorithms: the sequential
// greedy baselines with classic vertex orderings, and the parallel
// Jones–Plassmann and Gebremedhin–Manne algorithms the GPU variants are
// measured against. It also provides the shared vertex-priority hash and the
// coloring verifier used by every implementation in the repository.
package color

import (
	"fmt"

	"gcolor/internal/graph"
)

// Uncolored is the sentinel color of a vertex that has not been assigned.
const Uncolored int32 = -1

// Priority returns the deterministic pseudo-random priority of vertex v
// under the given seed. Independent-set algorithms (Jones–Plassmann, the
// GPU colorMax/MaxMin kernels, Luby) all share this hash so CPU and GPU
// results are comparable. Comparisons are on the returned uint32; ties are
// broken by vertex id.
func Priority(v int32, seed uint32) uint32 {
	x := uint32(v) ^ 0x9e3779b9
	x += seed * 0x85ebca6b
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// PriorityGreater reports whether vertex u (with priority pu) outranks
// vertex v (with priority pv), breaking ties by id.
func PriorityGreater(pu uint32, u int32, pv uint32, v int32) bool {
	if pu != pv {
		return pu > pv
	}
	return u > v
}

// Priorities returns the priority of every vertex of g under seed, stored
// as int32 bit patterns so the slice can be bound directly as a GPU buffer.
func Priorities(g *graph.Graph, seed uint32) []int32 {
	p := make([]int32, g.NumVertices())
	PrioritiesInto(g, seed, p)
	return p
}

// PrioritiesInto fills dst[0:NumVertices] with the vertex priorities under
// seed — Priorities without the allocation, for callers that reuse a
// buffer across runs.
func PrioritiesInto(g *graph.Graph, seed uint32, dst []int32) {
	for v := range dst[:g.NumVertices()] {
		dst[v] = int32(Priority(int32(v), seed))
	}
}

// Verify checks that colors is a proper coloring of g: every vertex is
// colored (>= 0) and no edge is monochromatic. It returns nil on success
// and a descriptive error naming the first violation otherwise.
func Verify(g *graph.Graph, colors []int32) error {
	n := g.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("color: %d colors for %d vertices", len(colors), n)
	}
	for v := 0; v < n; v++ {
		if colors[v] < 0 {
			return fmt.Errorf("color: vertex %d uncolored", v)
		}
		for _, u := range g.Neighbors(int32(v)) {
			if colors[u] == colors[int32(v)] {
				return fmt.Errorf("color: edge %d-%d monochromatic (color %d)", v, u, colors[v])
			}
		}
	}
	return nil
}

// VerifyChanged is Verify for a coloring derived from base, the coloring
// of the graph that g was edited from, where frontier holds every endpoint
// of every edge the edit added (graph.ApplyDelta's frontier does). It checks
// only the edges at frontier vertices, at vertices whose color differs
// from base, and at vertices past len(base): every other edge of g is an
// edge of the base graph whose endpoints keep base's colors. So when base
// is a proper coloring of the base graph, VerifyChanged returns exactly
// what Verify returns — a violation it finds is named by Verify itself,
// with the same text — at the cost of one O(V) diff plus the changed
// vertices' degrees. An improper base can hide a violation; the caller
// owns that precondition.
func VerifyChanged(g *graph.Graph, colors, base, frontier []int32) error {
	n := g.NumVertices()
	if len(colors) != n || len(base) > n {
		return Verify(g, colors)
	}
	for _, v := range frontier {
		if v >= 0 && int(v) < n && !properAt(g, colors, v) {
			return Verify(g, colors)
		}
	}
	for v, c := range colors[:len(base)] {
		if c != base[v] && !properAt(g, colors, int32(v)) {
			return Verify(g, colors)
		}
	}
	for v := len(base); v < n; v++ {
		if !properAt(g, colors, int32(v)) {
			return Verify(g, colors)
		}
	}
	return nil
}

// properAt reports whether v is colored and shares its color with no
// neighbour.
func properAt(g *graph.Graph, colors []int32, v int32) bool {
	c := colors[v]
	if c < 0 {
		return false
	}
	for _, u := range g.Neighbors(v) {
		if colors[u] == c {
			return false
		}
	}
	return true
}

// NumColors returns the number of distinct colors used, assuming colors form
// the dense range 0..max (which every algorithm here produces).
func NumColors(colors []int32) int {
	max := int32(-1)
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	return int(max) + 1
}

// firstFit returns the smallest color not present among v's already-colored
// neighbours, using scratch as a mark array (ideally of length >= deg(v)+1;
// a shorter one only costs a slower fallback scan, never a wrong answer).
func firstFit(g *graph.Graph, v int32, colors []int32, scratch []int32, epoch int32) int32 {
	nbr := g.Neighbors(v)
	limit := int32(len(nbr)) + 1 // some color in [0, deg] is always free
	if m := int32(len(scratch)); limit > m {
		limit = m
	}
	for _, u := range nbr {
		if c := colors[u]; c >= 0 && c < limit {
			scratch[c] = epoch
		}
	}
	for c := int32(0); c < limit; c++ {
		if scratch[c] != epoch {
			return c
		}
	}
	// Every color in [0, limit) is taken. With a full-size scratch deg(v)
	// neighbours cannot occupy deg(v)+1 colors, so this is reachable only
	// when scratch is shorter than the degree demands; grow the palette —
	// one past the largest neighbour color is always free.
	max := int32(-1)
	for _, u := range nbr {
		if colors[u] > max {
			max = colors[u]
		}
	}
	return max + 1
}
