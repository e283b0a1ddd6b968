package gpucolor

import (
	"fmt"

	"gcolor/internal/color"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// Hybrid colors g with the paper's hybrid algorithm. The vertex set is
// partitioned once by (static) degree: low-degree vertices run through the
// ordinary thread-per-vertex candidate kernel, while vertices with degree at
// or above the threshold are each processed by a whole workgroup — lanes
// stride over the neighbour list with coalesced reads and reduce the verdict
// cooperatively — eliminating the hub-lane serialization that dominates the
// baseline on scale-free graphs. The two populations keep separate active
// worklists; once the high-degree list drains, the iteration degenerates to
// the baseline kernels over the low-degree survivors.
func Hybrid(dev *simt.Device, g *graph.Graph, opt Options) (*Result, error) {
	return Color(dev, g, AlgHybrid, opt)
}

// HybridMaxMin combines the hybrid degree split with colorMaxMin selection:
// the cooperative kernel tests local-max and local-min status in one pass
// (no early exit — both verdicts need the full scan), and winners take two
// colors per iteration.
func HybridMaxMin(dev *simt.Device, g *graph.Graph, opt Options) (*Result, error) {
	return Color(dev, g, AlgHybridMaxMin, opt)
}

// HybridJP combines the hybrid degree split with Jones–Plassmann
// assignment: selection is identical to Hybrid, but winners take their
// smallest available color.
func HybridJP(dev *simt.Device, g *graph.Graph, opt Options) (*Result, error) {
	return Color(dev, g, AlgHybridJP, opt)
}

func (r *runner) runHybrid(mode iterMode) (*Result, error) {
	opt := r.opt
	// NormalizeHybridThreshold keeps the int32 conversion safe: a raw
	// int32(...) of a threshold above MaxInt32 wraps — into a negative
	// (silently replaced by the default) or a tiny positive (silently
	// routing every vertex to the cooperative kernel).
	threshold := int32(NormalizeHybridThreshold(opt.HybridThreshold))
	if threshold <= 0 {
		threshold = int32(r.dev.WavefrontWidth)
	}
	// The host sees the CSR offsets, so checking whether any vertex crosses
	// the threshold is free — when none does (meshes, road networks), the
	// hybrid is exactly the baseline and the partition pass would be pure
	// overhead. The comparison stays in the int domain: int32(MaxDegree())
	// would be its own wrap hazard.
	if r.g.MaxDegree() < int(threshold) {
		return r.runIterative(mode)
	}

	// One-time partition by static degree: re-partitioning per iteration
	// would be pure overhead (an earlier design did exactly that and spent
	// a quarter of its cycles there).
	bigCur, bigNext := r.bigBufs()
	var smallCur, smallNext *simt.BufInt32
	var nSmall, nBig int
	if opt.Compaction == CompactionAtomic {
		smallCur, smallNext = r.wlA, r.wlB
		r.cnt.Data()[1], r.cnt.Data()[2] = 0, 0
		r.launch(r.partitionAtomicKernel(smallCur, bigCur, int(r.n), threshold), false)
		nSmall = clampCount(int(r.cnt.Data()[1]), smallCur.Len())
		nBig = clampCount(int(r.cnt.Data()[2]), bigCur.Len())
		sortWorklist(smallCur, nSmall)
		sortWorklist(bigCur, nBig)
	} else {
		// r.wlA holds the identity list 0..n-1; compact the high-degree
		// flags into the big list, flip, and compact the rest.
		r.launch(r.partitionFlagKernel(int(r.n), threshold, false), false)
		nBig = r.compactInto(r.wlA, bigCur, int(r.n))
		r.launch(r.partitionFlagKernel(int(r.n), threshold, true), false)
		nSmall = r.compactInto(r.wlA, r.wlB, int(r.n))
		smallCur, smallNext = r.wlB, r.wlA
	}

	for iter := 0; nSmall+nBig > 0; iter++ {
		if iter >= opt.maxIters(int(r.n)) {
			return nil, fmt.Errorf("gpucolor: hybrid did not converge after %d iterations: %w", iter, ErrMaxIterations)
		}
		if err := r.checkIter(iter, nSmall+nBig); err != nil {
			return nil, err
		}
		r.res.ActivePerIter = append(r.res.ActivePerIter, nSmall+nBig)
		r.res.Iterations++

		if nSmall > 0 {
			r.launch(r.candidateKernel("candidate-small"+mode.suffix(), smallCur, nSmall, mode), true)
		}
		if nBig > 0 {
			if mode == modeMaxMin {
				r.launch(r.candidateBigMaxMinKernel(bigCur, nBig), true)
			} else {
				r.launch(r.candidateBigKernel(bigCur, nBig), true)
			}
		}

		// Winners of either population take color iter; survivors compact
		// into their population's next worklist.
		if nSmall > 0 {
			nSmall = r.assignAndCompact(smallCur, smallNext, nSmall, int32(iter), mode)
			smallCur, smallNext = smallNext, smallCur
		}
		if nBig > 0 {
			nBig = r.assignAndCompact(bigCur, bigNext, nBig, int32(iter), mode)
			bigCur, bigNext = bigNext, bigCur
		}
	}
	return r.finish()
}

// partitionAtomicKernel splits the full vertex set into low- and
// high-degree worklists with atomic cursors (cnt[1] and cnt[2]), in
// workgroup order (see runAppend).
func (r *runner) partitionAtomicKernel(small, big *simt.BufInt32, count int, threshold int32) *simt.RunResult {
	return r.dev.RunOrdered("partition", count, func(c *simt.Ctx) {
		v := c.Global
		deg := c.Ld(r.off, v+1) - c.Ld(r.off, v)
		c.Op(2)
		if deg >= threshold {
			slot := c.AtomicAdd(r.cnt, 2, 1)
			c.St(big, slot, v)
		} else {
			slot := c.AtomicAdd(r.cnt, 1, 1)
			c.St(small, slot, v)
		}
	})
}

// partitionFlagKernel writes per-vertex keep flags for the degree split
// (invert selects the low-degree complement) for scan compaction.
func (r *runner) partitionFlagKernel(count int, threshold int32, invert bool) *simt.RunResult {
	return r.dev.Run("partition", count, func(c *simt.Ctx) {
		v := c.Global
		deg := c.Ld(r.off, v+1) - c.Ld(r.off, v)
		c.Op(2)
		flag := int32(0)
		if (deg >= threshold) != invert {
			flag = 1
		}
		c.St(r.keep, v, flag)
	})
}

// loadHeader stages the vertex header (id, CSR range, priority) in LDS from
// lane 0 and broadcast-reads it into every lane's registers — the standard
// cooperative-kernel idiom (broadcasts are bank-conflict free).
func (r *runner) loadHeader(g *simt.GroupCtx, wl *simt.BufInt32) (v, start, end int32, pv uint32) {
	lds := g.AllocLDS(4)
	g.One(func(c *simt.Ctx) {
		vv := c.Ld(wl, g.ID())
		c.LdsSt(lds, 0, vv)
		c.LdsSt(lds, 1, c.Ld(r.off, vv))
		c.LdsSt(lds, 2, c.Ld(r.off, vv+1))
		c.LdsSt(lds, 3, c.Ld(r.prio, vv))
	})
	g.Barrier()
	g.ForEach(int32(g.Size()), func(c *simt.Ctx, i int32) {
		v = c.LdsLd(lds, 0)
		start = c.LdsLd(lds, 1)
		end = c.LdsLd(lds, 2)
		pv = uint32(c.LdsLd(lds, 3))
	})
	return v, start, end, pv
}

// candidateBigKernel runs one workgroup per high-degree vertex: all lanes
// cooperatively scan the neighbour list (coalesced adjacency reads) looking
// for an uncolored neighbour that outranks it, with chunk-level early exit.
func (r *runner) candidateBigKernel(wl *simt.BufInt32, count int) *simt.RunResult {
	return r.dev.RunCoop("candidate-big", count, func(g *simt.GroupCtx) {
		v, start, end, pv := r.loadHeader(g, wl)
		loses := g.Any(end-start, func(c *simt.Ctx, i int32) bool {
			u := c.Ld(r.adj, start+i)
			if c.Ld(r.col, u) != uncoloredConst {
				return false
			}
			pu := uint32(c.Ld(r.prio, u))
			c.Op(2)
			return color.PriorityGreater(pu, u, pv, v)
		})
		g.One(func(c *simt.Ctx) {
			win := winMax
			if loses {
				win = winNone
			}
			c.Op(1)
			c.St(r.win, v, win)
		})
	})
}

// candidateBigMaxMinKernel tests local-max and local-min status in one full
// cooperative scan: lanes raise LDS flags for each verdict they refute, and
// lane 0 combines them after a barrier. No early exit is possible — the
// min verdict needs every neighbour.
func (r *runner) candidateBigMaxMinKernel(wl *simt.BufInt32, count int) *simt.RunResult {
	return r.dev.RunCoop("candidate-big-maxmin", count, func(g *simt.GroupCtx) {
		v, start, end, pv := r.loadHeader(g, wl)
		flags := g.AllocLDS(2) // [0] not-max, [1] not-min
		g.ForEach(end-start, func(c *simt.Ctx, i int32) {
			u := c.Ld(r.adj, start+i)
			if c.Ld(r.col, u) != uncoloredConst {
				return
			}
			pu := uint32(c.Ld(r.prio, u))
			c.Op(2)
			if color.PriorityGreater(pu, u, pv, v) {
				c.LdsSt(flags, 0, 1)
			} else {
				c.LdsSt(flags, 1, 1)
			}
		})
		g.Barrier()
		g.One(func(c *simt.Ctx) {
			notMax := c.LdsLd(flags, 0)
			notMin := c.LdsLd(flags, 1)
			win := winNone
			switch {
			case notMax == 0:
				win = winMax
			case notMin == 0:
				win = winMin
			}
			c.Op(2)
			c.St(r.win, v, win)
		})
	})
}
