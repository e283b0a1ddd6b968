package gpucolor

import (
	"gcolor/internal/color"
	"gcolor/internal/simt"
)

// Fused candidate+assign kernel (Options.Fused) for the iterative max and
// maxmin algorithms.
//
// The two-kernel formulation exists to give every lane a stable snapshot
// of the colors: kernel 1 decides winners against colors frozen across the
// launch, kernel 2 writes them. The fused kernel drops the snapshot and
// instead reconstructs each neighbour's *launch-time* activity from the
// live color array: a vertex is on this iteration's worklist iff its color
// is still Uncolored — and if a winner has already published mid-launch,
// its new color is exactly this iteration's (2*iter or 2*iter+1 for
// maxmin, iter for max), which is numerically distinct from every color
// any earlier iteration assigned. So
//
//	active(u) ⇔ col[u] ∈ {-1, curMax, curMin}
//
// holds at every instant of the launch regardless of interleaving, the
// priority comparison runs over exactly the set kernel 1 would have used,
// and the fused run's winners — hence colors, worklists, iteration counts
// — are bit-identical to the two-kernel run's. The cross-lane traffic on
// col goes through LdShared/StShared: well-defined relaxed atomics on the
// host, costed as the plain loads and stores they are on GCN-class
// hardware (a winner's store is to its own cell; there are no
// read-modify-write races to serialize).
//
// What fusion saves, per iteration: one kernel-launch overhead, the second
// kernel's reload of the worklist entry, and the win-flag round trip
// (kernel 1's store + kernel 2's load) — strictly fewer simulated cycles,
// with the win buffer bypassed entirely.

// fuseAndCompact runs the fused kernel and rebuilds the worklist under the
// configured compaction strategy, returning the surviving count.
func (r *runner) fuseAndCompact(cur, next *simt.BufInt32, count int, iter int32, mode iterMode) int {
	if r.opt.Compaction == CompactionAtomic {
		r.cnt.Data()[0] = 0
		r.launch(r.fusedKernel(cur, next, count, iter, mode), true)
		kept := clampCount(int(r.cnt.Data()[0]), next.Len())
		sortWorklist(next, kept)
		return kept
	}
	r.launch(r.fusedKernel(cur, nil, count, iter, mode), true)
	return r.compactInto(cur, next, count)
}

// fusedKernel is kernels 1+2 in one launch: one work-item per worklist
// entry resolves its max/min verdict against launch-time-active neighbours
// and immediately publishes its color or its survival. Survivors feed scan
// compaction via keep flags (next == nil) or an atomic cursor (next !=
// nil), exactly like assignKernel.
func (r *runner) fusedKernel(wl, next *simt.BufInt32, count int, iter int32, mode iterMode) *simt.RunResult {
	maxmin := mode == modeMaxMin
	curMax := iter
	curMin := int32(-2) // matches no color: modeMax assigns no min winners
	if maxmin {
		curMax, curMin = 2*iter, 2*iter+1
	}
	return r.runAppend(next, "fused"+mode.suffix(), count, func(c *simt.Ctx) {
		v := c.Ld(wl, c.Global)
		pv := uint32(c.Ld(r.prio, v))
		start := c.Ld(r.off, v)
		end := c.Ld(r.off, v+1)
		isMax, isMin := true, true
		for e := start; e < end; e++ {
			u := c.Ld(r.adj, e)
			cu := c.LdShared(r.col, u)
			if cu != uncoloredConst && cu != curMax && cu != curMin {
				continue // colored in an earlier iteration: inactive
			}
			pu := uint32(c.Ld(r.prio, u))
			c.Op(2) // two priority comparisons, as in candidateKernel
			if color.PriorityGreater(pu, u, pv, v) {
				isMax = false
			} else {
				isMin = false
			}
		}
		survived := int32(0)
		c.Op(3) // kernel 1's verdict resolution + kernel 2's branch
		switch {
		case isMax:
			c.StShared(r.col, v, curMax)
		case maxmin && isMin:
			c.StShared(r.col, v, curMin)
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
	})
}
