package gpucolor

import (
	"fmt"

	"gcolor/internal/color"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// Speculative colors g with GPU speculative first-fit (the
// Gebremedhin–Manne scheme the paper's discussion compares against): every
// active vertex takes the smallest color not used by its neighbours,
// conflicts (monochromatic edges; the lower-priority endpoint loses) are
// detected, and the losers retry. It typically uses noticeably fewer colors
// than the iteration-numbered independent-set kernels.
//
// The speculation reads each round from a snapshot of the colors taken at
// the start of the round — the synchronous formulation of the algorithm.
// On real hardware lanes race on the live array and the conflict set
// depends on warp timing; the snapshot makes the simulated conflict set the
// one a fully-concurrent machine would produce (every active neighbour
// still looks uncolored) and keeps runs deterministic. The snapshot copy is
// charged as a kernel.
func Speculative(dev *simt.Device, g *graph.Graph, opt Options) (*Result, error) {
	return Color(dev, g, AlgSpeculative, opt)
}

func (r *runner) runSpeculative() (*Result, error) {
	snap := r.snapBuf()
	count := int(r.n)
	cur, next := r.wlA, r.wlB
	for round := 0; count > 0; round++ {
		if round >= r.opt.maxIters(int(r.n)) {
			return nil, fmt.Errorf("gpucolor: speculative did not converge after %d rounds: %w", round, ErrMaxIterations)
		}
		if err := r.checkIter(round, count); err != nil {
			return nil, err
		}
		r.res.ActivePerIter = append(r.res.ActivePerIter, count)
		r.res.Iterations++

		r.launch(r.snapshotKernel(snap), false)
		r.launch(r.speculateKernel(cur, snap, count), true)

		count = r.flagAndCompact(cur, next, count, r.detectKernel)

		if count > 0 {
			r.launch(r.resetKernel(next, count), false)
		}
		cur, next = next, cur
	}
	return r.finish()
}

// snapshotKernel copies the live color array into the round's read view.
func (r *runner) snapshotKernel(snap *simt.BufInt32) *simt.RunResult {
	return r.dev.Run("snapshot", int(r.n), func(c *simt.Ctx) {
		c.St(snap, c.Global, c.Ld(r.col, c.Global))
	})
}

// speculateKernel assigns each active vertex the smallest color not used by
// any neighbour in the snapshot view. Writes go only to the vertex's own
// slot, so the kernel is race-free.
func (r *runner) speculateKernel(wl, snap *simt.BufInt32, count int) *simt.RunResult {
	return r.dev.Run("speculate", count, func(c *simt.Ctx) {
		v := c.Ld(wl, c.Global)
		start := c.Ld(r.off, v)
		end := c.Ld(r.off, v+1)
		deg := end - start
		// forbidden[i] marks color i in use by a neighbour; some color in
		// [0, deg] is always free. This is the kernel's private scratch.
		forbidden := make([]bool, deg+1)
		for e := start; e < end; e++ {
			u := c.Ld(r.adj, e)
			if cu := c.Ld(snap, u); cu >= 0 && cu <= deg {
				forbidden[cu] = true
			}
		}
		pick := int32(0)
		for forbidden[pick] {
			pick++
		}
		c.Op(int(deg) + 1)
		c.St(r.col, v, pick)
	})
}

// detectKernel finds speculation conflicts: of a monochromatic edge, the
// endpoint with the lower hashed priority loses and retries. Random-priority
// loser selection keeps conflict chains short — resolving by vertex id
// (lower id wins) degenerates to O(diameter) rounds on meshes, because the
// conflict frontier crawls one vertex per round along id order. Colors are
// stable within this launch; losers go to the next worklist.
func (r *runner) detectKernel(wl, next *simt.BufInt32, count int) *simt.RunResult {
	return r.runAppend(next, "detect", count, func(c *simt.Ctx) {
		v := c.Ld(wl, c.Global)
		cv := c.Ld(r.col, v)
		pv := uint32(c.Ld(r.prio, v))
		start := c.Ld(r.off, v)
		end := c.Ld(r.off, v+1)
		lost := int32(0)
		for e := start; e < end; e++ {
			u := c.Ld(r.adj, e)
			c.Op(2)
			if c.Ld(r.col, u) != cv {
				continue
			}
			pu := uint32(c.Ld(r.prio, u))
			c.Op(2)
			if color.PriorityGreater(pu, u, pv, v) {
				lost = 1
				break
			}
		}
		if next == nil {
			c.St(r.keep, c.Global, lost)
		} else if lost == 1 {
			slot := c.AtomicAdd(r.cnt, 0, 1)
			c.St(next, slot, v)
		}
	})
}

// resetKernel un-colors the conflict losers before their retry round.
func (r *runner) resetKernel(wl *simt.BufInt32, count int) *simt.RunResult {
	return r.dev.Run("reset", count, func(c *simt.Ctx) {
		v := c.Ld(wl, c.Global)
		c.St(r.col, v, uncoloredConst)
	})
}
