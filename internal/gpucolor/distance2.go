package gpucolor

import (
	"fmt"

	"gcolor/internal/color"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// SpeculativeD2 produces a distance-2 coloring on the simulated GPU with
// the snapshot speculation scheme: every active vertex takes the smallest
// color unused within its two-hop neighbourhood (as of the round's
// snapshot), distance-2 conflicts resolve by priority, losers retry.
// Two-hop scans make per-vertex work proportional to the sum of the
// neighbours' degrees, so the load-imbalance pathologies of the distance-1
// kernels appear here squared — a natural extension experiment for the
// paper's techniques.
func SpeculativeD2(dev *simt.Device, g *graph.Graph, opt Options) (*Result, error) {
	r := newRunner(dev, g, opt)
	defer r.close()
	return r.runSpeculativeD2()
}

func (r *runner) runSpeculativeD2() (*Result, error) {
	snap := r.snapBuf()
	count := int(r.n)
	cur, next := r.wlA, r.wlB
	for round := 0; count > 0; round++ {
		if round >= r.opt.maxIters(int(r.n)) {
			return nil, fmt.Errorf("gpucolor: speculative-d2 did not converge after %d rounds: %w", round, ErrMaxIterations)
		}
		if err := r.checkIter(round, count); err != nil {
			return nil, err
		}
		r.res.ActivePerIter = append(r.res.ActivePerIter, count)
		r.res.Iterations++

		r.launch(r.snapshotKernel(snap), false)
		r.launch(r.speculateD2Kernel(cur, snap, count), true)

		count = r.flagAndCompact(cur, next, count, r.detectD2Kernel)

		if count > 0 {
			r.launch(r.resetKernel(next, count), false)
		}
		cur, next = next, cur
	}
	r.sealColors()
	res := r.res
	if err := color.VerifyD2(r.g, res.Colors); err != nil {
		return nil, fmt.Errorf("gpucolor: produced invalid distance-2 coloring: %w", err)
	}
	res.NumColors = r.countDistinct(res.Colors)
	return res, nil
}

// speculateD2Kernel assigns each active vertex the smallest color unused in
// its two-hop snapshot neighbourhood. Writes go only to the vertex's own
// slot.
func (r *runner) speculateD2Kernel(wl, snap *simt.BufInt32, count int) *simt.RunResult {
	return r.dev.Run("speculate-d2", count, func(c *simt.Ctx) {
		v := c.Ld(wl, c.Global)
		start := c.Ld(r.off, v)
		end := c.Ld(r.off, v+1)
		// The two-hop neighbourhood can use at most its own size in colors,
		// so a map-free bitset bounded by that size would need the exact
		// count; a small map keeps the kernel simple (it is private scratch,
		// not device memory).
		forbidden := make(map[int32]bool)
		mark := func(u int32) {
			if cu := c.Ld(snap, u); cu >= 0 {
				forbidden[cu] = true
			}
		}
		for e := start; e < end; e++ {
			u := c.Ld(r.adj, e)
			mark(u)
			us := c.Ld(r.off, u)
			ue := c.Ld(r.off, u+1)
			for f := us; f < ue; f++ {
				w := c.Ld(r.adj, f)
				if w != v {
					mark(w)
				}
			}
		}
		pick := int32(0)
		for forbidden[pick] {
			pick++
		}
		c.Op(len(forbidden) + 1)
		c.St(r.col, v, pick)
	})
}

// detectD2Kernel flags distance-2 conflicts: v loses if any vertex within
// two hops holds v's color and outranks it by priority.
func (r *runner) detectD2Kernel(wl, next *simt.BufInt32, count int) *simt.RunResult {
	return r.runAppend(next, "detect-d2", count, func(c *simt.Ctx) {
		v := c.Ld(wl, c.Global)
		cv := c.Ld(r.col, v)
		pv := uint32(c.Ld(r.prio, v))
		start := c.Ld(r.off, v)
		end := c.Ld(r.off, v+1)
		loses := func(u int32) bool {
			if u == v || c.Ld(r.col, u) != cv {
				return false
			}
			pu := uint32(c.Ld(r.prio, u))
			c.Op(2)
			return color.PriorityGreater(pu, u, pv, v)
		}
		lost := int32(0)
	scan:
		for e := start; e < end; e++ {
			u := c.Ld(r.adj, e)
			if loses(u) {
				lost = 1
				break
			}
			us := c.Ld(r.off, u)
			ue := c.Ld(r.off, u+1)
			for f := us; f < ue; f++ {
				if loses(c.Ld(r.adj, f)) {
					lost = 1
					break scan
				}
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
