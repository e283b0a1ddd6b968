package gpuapps

import (
	"fmt"

	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// BFSResult holds the outcome of a breadth-first search.
type BFSResult struct {
	// Levels[v] is the hop distance from the source, or -1 if unreachable.
	Levels []int32
	// FrontierSizes records the frontier per level.
	FrontierSizes []int
	Stats         *Stats
}

// BFS runs a level-synchronous breadth-first search from src on the
// simulated GPU: one expand kernel per level, thread per frontier vertex,
// visitation claimed with compare-and-swap. The expand kernel's full
// neighbour scans make it the classic load-imbalance twin of the coloring
// candidate kernel. The claim decides which lane appends a vertex to the
// next frontier, and where, so every launch that claims or appends runs
// its workgroups in order (simt.Device.RunOrdered): simulated cycles then
// do not depend on host parallelism.
func BFS(dev *simt.Device, g *graph.Graph, src int32) (*BFSResult, error) {
	n := g.NumVertices()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("gpuapps: BFS source %d out of range [0,%d)", src, n)
	}
	b := bindCSR(dev, g)
	levels := dev.AllocInt32(n)
	levels.Fill(-1)
	levels.Data()[src] = 0
	cur := dev.AllocInt32(n)
	next := dev.AllocInt32(n)
	cnt := dev.AllocInt32(1)
	cur.Data()[0] = src

	res := &BFSResult{Stats: newStats(dev)}
	count := 1
	for level := int32(0); count > 0; level++ {
		res.FrontierSizes = append(res.FrontierSizes, count)
		res.Stats.Iterations++
		cnt.Data()[0] = 0
		rr := dev.RunOrdered("bfs-expand", count, func(c *simt.Ctx) {
			v := c.Ld(cur, c.Global)
			start := c.Ld(b.off, v)
			end := c.Ld(b.off, v+1)
			for e := start; e < end; e++ {
				u := c.Ld(b.adj, e)
				c.Op(1)
				if c.AtomicCAS(levels, u, -1, level+1) == -1 {
					slot := c.AtomicAdd(cnt, 0, 1)
					c.St(next, slot, u)
				}
			}
		})
		res.Stats.charge(rr, true)
		count = int(cnt.Data()[0])
		sortWorklist(next, count)
		cur, next = next, cur
	}
	res.Levels = levels.Data()
	return res, nil
}

// BFSHybrid is BFS with the paper's hybrid technique applied to the expand
// phase: frontier vertices with degree at or above the threshold are each
// expanded by a whole workgroup (coalesced cooperative neighbour scan), the
// rest thread-per-vertex — removing the hub-lane serialization exactly as
// in the coloring kernels. threshold <= 0 means the device's wavefront
// width. Levels are identical to BFS's.
func BFSHybrid(dev *simt.Device, g *graph.Graph, src int32, threshold int32) (*BFSResult, error) {
	n := g.NumVertices()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("gpuapps: BFS source %d out of range [0,%d)", src, n)
	}
	if threshold <= 0 {
		threshold = int32(dev.WavefrontWidth)
	}
	// Host-side short-circuit, as in gpucolor.Hybrid: when no vertex can
	// cross the threshold, the per-level partition pass would be pure
	// overhead.
	if int32(g.MaxDegree()) < threshold {
		return BFS(dev, g, src)
	}
	b := bindCSR(dev, g)
	levels := dev.AllocInt32(n)
	levels.Fill(-1)
	levels.Data()[src] = 0
	cur := dev.AllocInt32(n)
	next := dev.AllocInt32(n)
	small := dev.AllocInt32(n)
	big := dev.AllocInt32(n)
	cnt := dev.AllocInt32(3) // [0] next, [1] small, [2] big
	cur.Data()[0] = src

	res := &BFSResult{Stats: newStats(dev)}
	count := 1
	for level := int32(0); count > 0; level++ {
		res.FrontierSizes = append(res.FrontierSizes, count)
		res.Stats.Iterations++

		// Split the frontier by degree.
		cnt.Data()[1], cnt.Data()[2] = 0, 0
		rr := dev.RunOrdered("bfs-partition", count, func(c *simt.Ctx) {
			v := c.Ld(cur, c.Global)
			deg := c.Ld(b.off, v+1) - c.Ld(b.off, v)
			c.Op(2)
			if deg >= threshold {
				slot := c.AtomicAdd(cnt, 2, 1)
				c.St(big, slot, v)
			} else {
				slot := c.AtomicAdd(cnt, 1, 1)
				c.St(small, slot, v)
			}
		})
		res.Stats.charge(rr, false)
		nSmall, nBig := int(cnt.Data()[1]), int(cnt.Data()[2])
		sortWorklist(small, nSmall)
		sortWorklist(big, nBig)

		cnt.Data()[0] = 0
		if nSmall > 0 {
			rr = dev.RunOrdered("bfs-expand-small", nSmall, func(c *simt.Ctx) {
				v := c.Ld(small, c.Global)
				start := c.Ld(b.off, v)
				end := c.Ld(b.off, v+1)
				for e := start; e < end; e++ {
					u := c.Ld(b.adj, e)
					c.Op(1)
					if c.AtomicCAS(levels, u, -1, level+1) == -1 {
						slot := c.AtomicAdd(cnt, 0, 1)
						c.St(next, slot, u)
					}
				}
			})
			res.Stats.charge(rr, true)
		}
		if nBig > 0 {
			rr = dev.RunCoopOrdered("bfs-expand-big", nBig, func(g *simt.GroupCtx) {
				lds := g.AllocLDS(3)
				g.One(func(c *simt.Ctx) {
					v := c.Ld(big, g.ID())
					c.LdsSt(lds, 0, v)
					c.LdsSt(lds, 1, c.Ld(b.off, v))
					c.LdsSt(lds, 2, c.Ld(b.off, v+1))
				})
				g.Barrier()
				var start, end int32
				g.ForEach(int32(g.Size()), func(c *simt.Ctx, i int32) {
					start = c.LdsLd(lds, 1)
					end = c.LdsLd(lds, 2)
				})
				g.ForEach(end-start, func(c *simt.Ctx, i int32) {
					u := c.Ld(b.adj, start+i)
					c.Op(1)
					if c.AtomicCAS(levels, u, -1, level+1) == -1 {
						slot := c.AtomicAdd(cnt, 0, 1)
						c.St(next, slot, u)
					}
				})
			})
			res.Stats.charge(rr, true)
		}
		count = int(cnt.Data()[0])
		sortWorklist(next, count)
		cur, next = next, cur
	}
	res.Levels = levels.Data()
	return res, nil
}

// BFSCPU is the sequential reference.
func BFSCPU(g *graph.Graph, src int32) []int32 {
	n := g.NumVertices()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	if n == 0 {
		return levels
	}
	levels[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if levels[u] == -1 {
				levels[u] = levels[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return levels
}
