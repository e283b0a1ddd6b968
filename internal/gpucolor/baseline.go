package gpucolor

import (
	"fmt"

	"gcolor/internal/color"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// Baseline colors g with the thread-per-vertex iterative independent-set
// algorithm (Pannotia colorMax): per iteration, kernel 1 flags every
// uncolored vertex whose priority outranks all its uncolored neighbours, and
// kernel 2 gives flagged vertices the iteration number as their color while
// compacting the rest into the next worklist. The kernels are topology-
// driven and thread-per-vertex, so wavefronts containing high-degree
// vertices serialize on them — the load imbalance the paper characterizes.
func Baseline(dev *simt.Device, g *graph.Graph, opt Options) (*Result, error) {
	return Color(dev, g, AlgBaseline, opt)
}

// MaxMin is the colorMaxMin variant: each iteration colors both the local
// priority maxima (color 2i) and the local minima (color 2i+1), roughly
// halving the iteration count at the price of a second comparison per
// neighbour.
func MaxMin(dev *simt.Device, g *graph.Graph, opt Options) (*Result, error) {
	return Color(dev, g, AlgMaxMin, opt)
}

// JPColor is the Jones–Plassmann assignment variant: the independent set is
// selected exactly as in the baseline, but winners take their smallest
// *available* color (a first-fit scan over already-colored neighbours)
// instead of the iteration number. Same convergence profile as the
// baseline, first-fit color quality, and a costlier assign kernel.
func JPColor(dev *simt.Device, g *graph.Graph, opt Options) (*Result, error) {
	return Color(dev, g, AlgJP, opt)
}

// iterMode selects the flavour of the iterative independent-set loop.
type iterMode int

const (
	modeMax iterMode = iota
	modeMaxMin
	modeJP
)

func (m iterMode) suffix() string {
	switch m {
	case modeMaxMin:
		return "-maxmin"
	case modeJP:
		return "-jp"
	default:
		return ""
	}
}

const (
	winNone = int32(0)
	winMax  = int32(1)
	winMin  = int32(2)
)

func (r *runner) runIterative(mode iterMode) (*Result, error) {
	// Jones–Plassmann cannot fuse: a first-fit color written mid-launch is
	// indistinguishable from a color assigned iterations ago, so readers
	// could not reconstruct the launch-time active set.
	fused := r.opt.Fused && mode != modeJP
	count := int(r.n)
	cur, next := r.wlA, r.wlB
	for iter := 0; count > 0; iter++ {
		if iter >= r.opt.maxIters(int(r.n)) {
			return nil, fmt.Errorf("gpucolor: no convergence after %d iterations: %w", iter, ErrMaxIterations)
		}
		if err := r.checkIter(iter, count); err != nil {
			return nil, err
		}
		r.res.ActivePerIter = append(r.res.ActivePerIter, count)
		r.res.Iterations++

		if fused {
			count = r.fuseAndCompact(cur, next, count, int32(iter), mode)
		} else {
			r.launch(r.candidateKernel("candidate"+mode.suffix(), cur, count, mode), true)
			count = r.assignAndCompact(cur, next, count, int32(iter), mode)
		}
		cur, next = next, cur
	}
	return r.finish()
}

// assignAndCompact runs kernel 2 and rebuilds the worklist under the
// configured compaction strategy, returning the surviving count.
func (r *runner) assignAndCompact(cur, next *simt.BufInt32, count int, iter int32, mode iterMode) int {
	if r.opt.Compaction == CompactionAtomic {
		r.cnt.Data()[0] = 0
		r.launch(r.assignKernel(cur, next, count, iter, mode), false)
		kept := clampCount(int(r.cnt.Data()[0]), next.Len())
		sortWorklist(next, kept)
		return kept
	}
	r.launch(r.assignKernel(cur, nil, count, iter, mode), false)
	return r.compactInto(cur, next, count)
}

// candidateKernel is kernel 1: one work-item per worklist entry, reducing
// the vertex's full neighbour list to decide local max (and for maxmin,
// min) status among uncolored vertices. Like the original colorMax kernel
// it scans the entire list every iteration — there is no early exit — which
// is exactly why a high-degree lane serializes its whole wavefront. It
// reads colors (stable within the launch) and writes only its own win flag.
func (r *runner) candidateKernel(name string, wl *simt.BufInt32, count int, mode iterMode) *simt.RunResult {
	maxmin := mode == modeMaxMin
	return r.dev.Run(name, count, func(c *simt.Ctx) {
		v := c.Ld(wl, c.Global)
		pv := uint32(c.Ld(r.prio, v))
		start := c.Ld(r.off, v)
		end := c.Ld(r.off, v+1)
		isMax, isMin := true, true
		for e := start; e < end; e++ {
			u := c.Ld(r.adj, e)
			if c.Ld(r.col, u) != uncoloredConst {
				continue
			}
			pu := uint32(c.Ld(r.prio, u))
			c.Op(2) // two priority comparisons
			if color.PriorityGreater(pu, u, pv, v) {
				isMax = false
			} else {
				isMin = false
			}
		}
		flag := winNone
		switch {
		case isMax:
			flag = winMax
		case maxmin && isMin:
			flag = winMin
		}
		c.Op(2)
		c.St(r.win, v, flag)
	})
}

// assignKernel is kernel 2: winners take their color; everyone else
// survives into the next worklist — via per-position keep flags consumed by
// scan compaction (next == nil), or via an atomic cursor (next != nil).
// For modeJP the winner's color is its smallest available one — a first-fit
// scan over the neighbour colors, which are stable in this launch because
// no two adjacent vertices can both be winners.
func (r *runner) assignKernel(wl, next *simt.BufInt32, count int, iter int32, mode iterMode) *simt.RunResult {
	return r.runAppend(next, "assign"+mode.suffix(), count, func(c *simt.Ctx) {
		v := c.Ld(wl, c.Global)
		survived := int32(0)
		switch c.Ld(r.win, v) {
		case winMax:
			switch mode {
			case modeMaxMin:
				c.St(r.col, v, 2*iter)
			case modeJP:
				c.St(r.col, v, r.firstFitColor(c, v))
			default:
				c.St(r.col, v, iter)
			}
		case winMin:
			c.St(r.col, v, 2*iter+1)
		default:
			survived = 1
			if next != nil {
				slot := c.AtomicAdd(r.cnt, 0, 1)
				c.St(next, slot, v)
			}
		}
		if next == nil {
			c.St(r.keep, c.Global, survived)
		}
		c.Op(1)
	})
}

// firstFitColor scans v's neighbour colors and returns the smallest color
// not in use (some color in [0, deg] is always free).
func (r *runner) firstFitColor(c *simt.Ctx, v int32) int32 {
	start := c.Ld(r.off, v)
	end := c.Ld(r.off, v+1)
	deg := end - start
	forbidden := make([]bool, deg+1)
	for e := start; e < end; e++ {
		u := c.Ld(r.adj, e)
		if cu := c.Ld(r.col, u); cu >= 0 && cu <= deg {
			forbidden[cu] = true
		}
	}
	pick := int32(0)
	for forbidden[pick] {
		pick++
	}
	c.Op(int(deg) + 1)
	return pick
}
