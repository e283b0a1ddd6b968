// Package gen provides deterministic synthetic graph generators spanning the
// structural range the paper characterizes: regular meshes (low degree
// variance), uniform random graphs, and scale-free graphs whose hub vertices
// drive SIMT load imbalance. All generators are seeded and reproducible.
//
// These generators stand in for the real-world datasets used in the paper's
// evaluation (SuiteSparse/SNAP-style inputs); see DESIGN.md for the
// substitution rationale.
//
// Panic policy: generator parameters are programmer input, not external
// data, so out-of-domain arguments (negative sizes, an odd Watts–Strogatz
// k, a Barabási–Albert attachment count outside [1,n)) panic with a
// message naming the violated precondition. Code that forwards untrusted
// values — command-line flags, parsed files — must validate them first;
// cmd/graphgen does exactly that. Anything reachable from *well-formed*
// parameters never panics.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"gcolor/internal/graph"
)

// RMATParams configures the recursive-matrix (R-MAT) generator.
type RMATParams struct {
	A, B, C float64 // quadrant probabilities; D is 1-A-B-C
	Noise   float64 // per-level multiplicative noise applied to A..D
}

// Graph500 holds the standard Graph500 R-MAT parameters (a=0.57, b=c=0.19),
// producing a heavy-tailed, hub-clustered degree distribution.
var Graph500 = RMATParams{A: 0.57, B: 0.19, C: 0.19, Noise: 0.1}

// RMAT generates an R-MAT graph with 2^scale vertices and about
// edgeFactor*2^scale undirected edges (duplicates and self loops are removed,
// so the final count is slightly lower). Hubs concentrate at low vertex ids,
// which is exactly the placement that breaks static workgroup scheduling.
func RMAT(scale, edgeFactor int, p RMATParams, seed int64) *graph.Graph {
	if scale < 0 || scale > 30 {
		panic(fmt.Sprintf("gen: RMAT scale %d out of range [0,30]", scale))
	}
	n := 1 << scale
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := rmatEdge(rng, scale, p)
		b.AddEdge(int32(u), int32(v))
	}
	return b.Build()
}

func rmatEdge(rng *rand.Rand, scale int, p RMATParams) (int, int) {
	u, v := 0, 0
	a, bq, c := p.A, p.B, p.C
	for bit := 0; bit < scale; bit++ {
		// Per-level noise keeps the degree distribution from being too
		// stair-stepped (standard R-MAT practice).
		na := a * (1 - p.Noise/2 + p.Noise*rng.Float64())
		nb := bq * (1 - p.Noise/2 + p.Noise*rng.Float64())
		nc := c * (1 - p.Noise/2 + p.Noise*rng.Float64())
		r := rng.Float64() * (na + nb + nc + (1 - a - bq - c))
		switch {
		case r < na:
			// top-left: no bits set
		case r < na+nb:
			v |= 1 << bit
		case r < na+nb+nc:
			u |= 1 << bit
		default:
			u |= 1 << bit
			v |= 1 << bit
		}
	}
	return u, v
}

// GNM generates a uniform random graph with n vertices and (up to) m distinct
// undirected edges (Erdős–Rényi G(n,m); duplicates are merged so very dense
// requests converge to the complete graph).
func GNM(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// Grid2D generates a rows x cols lattice with 4-point (von Neumann)
// connectivity, the stencil structure of the paper's mesh-like inputs
// (ecology, circuit matrices). Degree is 2..4 — essentially no imbalance.
func Grid2D(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Grid3D generates an x*y*z lattice with 6-point connectivity.
func Grid3D(x, y, z int) *graph.Graph {
	b := graph.NewBuilder(x * y * z)
	id := func(i, j, k int) int32 { return int32((i*y+j)*z + k) }
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				if i+1 < x {
					b.AddEdge(id(i, j, k), id(i+1, j, k))
				}
				if j+1 < y {
					b.AddEdge(id(i, j, k), id(i, j+1, k))
				}
				if k+1 < z {
					b.AddEdge(id(i, j, k), id(i, j, k+1))
				}
			}
		}
	}
	return b.Build()
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within the given radius — a road-network-like structure: low,
// spatially correlated degrees. Uses a cell grid, so it is O(n) for radii
// that keep the expected degree constant.
func RandomGeometric(n int, radius float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	grid := make(map[[2]int][]int32)
	cell := func(i int) [2]int {
		cx, cy := int(xs[i]*float64(cells)), int(ys[i]*float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return [2]int{cx, cy}
	}
	for i := 0; i < n; i++ {
		c := cell(i)
		grid[c] = append(grid[c], int32(i))
	}
	b := graph.NewBuilder(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		c := cell(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[[2]int{c[0] + dx, c[1] + dy}] {
					if int32(i) >= j {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						b.AddEdge(int32(i), j)
					}
				}
			}
		}
	}
	return b.Build()
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbours, with each edge rewired to a
// random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, seed int64) *graph.Graph {
	if k%2 != 0 {
		panic(fmt.Sprintf("gen: WattsStrogatz k=%d must be even", k))
	}
	if k >= n {
		panic(fmt.Sprintf("gen: WattsStrogatz k=%d must be < n=%d", k, n))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			u := (v + j) % n
			if rng.Float64() < beta {
				u = rng.Intn(n)
				for u == v {
					u = rng.Intn(n)
				}
			}
			b.AddEdge(int32(v), int32(u))
		}
	}
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches m edges to existing vertices with probability proportional to
// degree, yielding a power-law tail with hubs at low ids.
func BarabasiAlbert(n, m int, seed int64) *graph.Graph {
	if m < 1 || m >= n {
		panic(fmt.Sprintf("gen: BarabasiAlbert m=%d must be in [1,n)", m))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	// targets holds one entry per arc endpoint, so uniform sampling from it
	// is degree-proportional sampling.
	targets := make([]int32, 0, 2*m*n)
	// Seed clique over the first m+1 vertices.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			b.AddEdge(int32(u), int32(v))
			targets = append(targets, int32(u), int32(v))
		}
	}
	// The chosen set is visited in sorted order: the order it is appended
	// to targets feeds every later draw, so map order would make the graph
	// differ from call to call.
	chosen := make(map[int32]bool, m)
	picks := make([]int32, 0, m)
	for v := m + 1; v < n; v++ {
		clear(chosen)
		picks = picks[:0]
		for len(picks) < m {
			u := targets[rng.Intn(len(targets))]
			if u != int32(v) && !chosen[u] {
				chosen[u] = true
				picks = append(picks, u)
			}
		}
		slices.Sort(picks)
		for _, u := range picks {
			b.AddEdge(int32(v), u)
			targets = append(targets, int32(v), u)
		}
	}
	return b.Build()
}

// Star generates the star graph K_{1,n-1}: vertex 0 connected to all others.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, int32(v))
	}
	return b.Build()
}

// Path generates the path graph on n vertices.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(int32(v), int32(v+1))
	}
	return b.Build()
}

// Cycle generates the cycle graph on n vertices (n >= 3).
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: Cycle needs n >= 3, got %d", n))
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(int32(v), int32((v+1)%n))
	}
	return b.Build()
}

// Complete generates the complete graph K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

// ExpectedGeometricDegree returns the expected degree of RandomGeometric for
// the given n and radius (ignoring boundary effects): n * pi * r^2.
func ExpectedGeometricDegree(n int, radius float64) float64 {
	return float64(n) * math.Pi * radius * radius
}
