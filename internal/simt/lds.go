package simt

import "slices"

// Local data share (LDS): workgroup-scoped scratch memory with a banked
// cost model. An LDS access instruction completes in one LDSOp when the
// wavefront's lanes hit distinct banks (or broadcast-read the same
// address); lanes hitting the same bank at different addresses serialize,
// so the instruction costs LDSOp times the worst bank's distinct-address
// count — the classic bank-conflict model.

// LDSBuf is a workgroup-local buffer. Allocate one per group inside a
// cooperative kernel with GroupCtx.AllocLDS; it is zeroed and private to
// the group.
type LDSBuf struct {
	data []int32
}

// Data returns the backing storage (group-private).
func (b *LDSBuf) Data() []int32 { return b.data }

// Len returns the element count.
func (b *LDSBuf) Len() int { return len(b.data) }

// AllocLDS allocates a zeroed workgroup-local buffer of n elements. The
// backing memory comes from the executing worker's LDS arena and is
// recycled after the group finishes, so steady-state cooperative kernels
// allocate no LDS on the heap.
func (g *GroupCtx) AllocLDS(n int) *LDSBuf {
	if g.lds == nil {
		return &LDSBuf{data: make([]int32, n)}
	}
	return g.lds.alloc(n)
}

// ldsArena is a worker-owned bump allocator backing AllocLDS. Buffers are
// group-private and dead once the group finishes, so reset() between
// groups recycles everything. Buf headers are recycled too; when the
// header slice grows, previously returned pointers stay valid (they point
// into the old array, whose data slices remain group-private).
type ldsArena struct {
	mem  []int32
	bufs []*LDSBuf
	used int // elements of mem handed out this group
	nb   int // headers handed out this group
}

func (a *ldsArena) reset() { a.used, a.nb = 0, 0 }

func (a *ldsArena) alloc(n int) *LDSBuf {
	if len(a.mem)-a.used < n {
		grown := make([]int32, a.used+n+len(a.mem))
		// Old buffers keep their slices into the old array; only the
		// unhanded-out tail moves.
		a.mem = grown
		a.used = 0
	}
	s := a.mem[a.used : a.used+n]
	for i := range s {
		s[i] = 0
	}
	a.used += n
	if a.nb == len(a.bufs) {
		a.bufs = append(a.bufs, &LDSBuf{})
	}
	b := a.bufs[a.nb]
	a.nb++
	b.data = s
	return b
}

// ldsOrd records the k-th LDS access of a wavefront: which (bank, address)
// pairs its lanes touched.
type ldsOrd struct {
	// pairs holds bank<<32 | address entries, possibly with duplicates (a
	// repeated address is a broadcast and costs nothing extra). Bank-
	// conflict cost only depends on the set of pairs, not their order, so
	// recording can be append-only.
	pairs []uint64
}

// recordLDS notes that lane l issued an LDS access to element idx.
func (w *wfAcc) recordLDS(l int, idx int32, banks int32) {
	lane := &w.lanes[l]
	k := int(lane.ldsAccess)
	lane.ldsAccess++
	for len(w.ldsOrds) <= k {
		w.ldsOrds = append(w.ldsOrds, ldsOrd{})
	}
	if k >= w.nLdsOrds {
		w.nLdsOrds = k + 1
	}
	o := &w.ldsOrds[k]
	// LDSBanks is a power of two on every stock cost model, and this runs
	// once per simulated LDS access: mask instead of modulo.
	var bank uint64
	if b := uint32(banks); b&(b-1) == 0 {
		bank = uint64(uint32(idx) & (b - 1))
	} else {
		bank = uint64(uint32(idx) % uint32(banks))
	}
	o.pairs = append(o.pairs, bank<<32|uint64(uint32(idx)))
}

// ldsCost folds the wavefront's LDS activity into cycles: per ordinal,
// LDSOp times the worst bank's distinct-address count. Most ordinals hit
// every bank at one address at most (no conflict, or a broadcast) and cost
// one LDSOp; ldsConflicts proves that in one pass. Only an ordinal that
// really conflicts, or a model with more than 64 banks, is sorted.
func (w *wfAcc) ldsCost(cm *CostModel) (cycles int64, accesses int64) {
	fewBanks := cm.LDSBanks >= 1 && cm.LDSBanks <= 64
	for k := 0; k < w.nLdsOrds; k++ {
		pairs := w.ldsOrds[k].pairs
		worst := 1
		if !fewBanks || w.ldsConflicts(pairs) {
			worst = ldsWorstBank(pairs)
		}
		cycles += cm.LDSOp * int64(worst)
	}
	for i := range w.lanes {
		accesses += int64(w.lanes[i].ldsAccess)
	}
	return cycles, accesses
}

// ldsConflicts reports whether some bank is hit at two distinct addresses.
// Banks must be below 64.
func (w *wfAcc) ldsConflicts(pairs []uint64) bool {
	var seen uint64
	for _, p := range pairs {
		bank, addr := p>>32, uint32(p)
		bit := uint64(1) << bank
		if seen&bit == 0 {
			seen |= bit
			w.ldsAddr[bank] = addr
		} else if w.ldsAddr[bank] != addr {
			return true
		}
	}
	return false
}

// ldsWorstBank returns the largest distinct-address count of any bank.
// Sorting groups each bank's pairs together (bank occupies the high bits)
// with duplicate addresses adjacent, so one pass counts the longest
// distinct run per bank.
func ldsWorstBank(pairs []uint64) int {
	slices.Sort(pairs)
	worst := 1
	run := 0
	prev := ^uint64(0)
	for _, p := range pairs {
		if p == prev {
			continue // broadcast: same bank, same address
		}
		if p>>32 == prev>>32 {
			run++
		} else {
			run = 1
		}
		prev = p
		if run > worst {
			worst = run
		}
	}
	return worst
}

// LdsLd loads element i of the group-local buffer b, accounting one LDS
// access.
func (c *Ctx) LdsLd(b *LDSBuf, i int32) int32 {
	c.wf.recordLDS(c.laneIdx, i, c.cm.LDSBanks)
	return b.data[i]
}

// LdsSt stores v to element i of the group-local buffer b, accounting one
// LDS access. Stores from different lanes to the same element within one
// phase are a programming error on real hardware too; the simulator keeps
// last-writer-wins semantics.
func (c *Ctx) LdsSt(b *LDSBuf, i int32, v int32) {
	c.wf.recordLDS(c.laneIdx, i, c.cm.LDSBanks)
	b.data[i] = v
}
