package simt

import (
	"math/bits"
	"sync/atomic"
)

// Per-wavefront cost accounting. Lanes of one wavefront execute in lockstep,
// so the wavefront pays for its busiest lane's ALU work, and each memory
// access ordinal (the k-th access issued by each lane) becomes one
// wavefront-wide memory instruction whose cost depends on how many distinct
// memory segments the active lanes touch — the coalescing model.

type laneAcc struct {
	alu       int64 // ALU ops issued by this lane
	atomics   int64 // atomic ops issued by this lane
	nAccess   int32 // global memory accesses issued (its ordinal counter)
	ldsAccess int32 // LDS accesses issued (its LDS ordinal counter)
	active    bool  // lane executed at all (grid tail masking)
}

type ordAcc struct {
	segs []uint64 // distinct segments touched (deduplicated, <= width entries)
	// filter is a 256-bit bloom filter over segs. The FIFO cache model
	// makes cost order-sensitive, so segs must stay in first-touch order
	// and dedup must happen at record time; the filter lets scattered
	// access patterns append without scanning the whole slice.
	filter [4]uint64
}

// wfAcc accumulates one wavefront's activity. It is scratch memory reused
// across wavefronts by each phase-A worker.
type wfAcc struct {
	lanes    []laneAcc
	ords     []ordAcc
	nOrds    int
	ldsOrds  []ldsOrd
	nLdsOrds int
	ldsAddr  [64]uint32 // ldsConflicts scratch: the address each bank was hit at

	// ctx is the reusable lane context for data-parallel execution: one
	// Ctx per wavefront accumulator instead of one per work-item, rebuilt
	// by field assignment each lane. Bodies must not retain it past their
	// invocation (the documented Ctx contract).
	ctx Ctx
}

func newWfAcc(width int) *wfAcc {
	return &wfAcc{lanes: make([]laneAcc, width)}
}

func (w *wfAcc) reset() {
	for i := range w.lanes {
		w.lanes[i] = laneAcc{}
	}
	for i := 0; i < w.nOrds; i++ {
		w.ords[i].segs = w.ords[i].segs[:0]
		w.ords[i].filter = [4]uint64{}
	}
	w.nOrds = 0
	for i := 0; i < w.nLdsOrds; i++ {
		w.ldsOrds[i].pairs = w.ldsOrds[i].pairs[:0]
	}
	w.nLdsOrds = 0
}

// record notes that lane l issued a memory access to element idx of buffer
// buf, with the given coalescing granularity.
func (w *wfAcc) record(l int, buf, idx, segElems int32) {
	lane := &w.lanes[l]
	k := int(lane.nAccess)
	lane.nAccess++
	for len(w.ords) <= k {
		w.ords = append(w.ords, ordAcc{})
	}
	if k >= w.nOrds {
		w.nOrds = k + 1
	}
	o := &w.ords[k]
	// SegmentElems is a power of two on every stock cost model, and this
	// runs once per simulated memory access: shift instead of divide.
	var segIdx uint64
	if e := uint32(segElems); e&(e-1) == 0 {
		segIdx = uint64(uint32(idx)) >> uint(bits.TrailingZeros32(e))
	} else {
		segIdx = uint64(uint32(idx)) / uint64(uint32(segElems))
	}
	// A segment index fits in 32 bits, so buffer id and index pack into
	// the key without overlap: distinct buffers never share a segment.
	seg := uint64(uint32(buf))<<32 | segIdx
	// Coalesced fast path: lanes walk memory with spatial locality, so a
	// duplicate segment is overwhelmingly the one just appended.
	if n := len(o.segs); n > 0 && o.segs[n-1] == seg {
		return
	}
	h := (seg * segHashMul) >> 56
	bit := uint64(1) << (h & 63)
	if o.filter[h>>6]&bit != 0 {
		// Possibly seen before (or a filter collision): confirm by scan.
		for i := len(o.segs) - 2; i >= 0; i-- {
			if o.segs[i] == seg {
				return
			}
		}
	}
	o.filter[h>>6] |= bit
	o.segs = append(o.segs, seg)
}

// wfCost is the costed-out summary of one wavefront.
type wfCost struct {
	cycles       int64
	busySum      int64 // sum over lanes of performed operations: utilization numerator
	busyMax      int64 // busiest lane: utilization denominator per wavefront
	aluOps       int64
	accesses     int64
	transactions int64
	atomics      int64
	ldsAccesses  int64
	cacheHits    int64
}

// cost folds the accumulated activity into cycles under cm. cache may be
// nil (model off).
func (w *wfAcc) cost(cm *CostModel, cache *segCache) wfCost {
	var c wfCost
	var aluMax int64
	for i := range w.lanes {
		l := &w.lanes[i]
		if !l.active {
			continue
		}
		busy := l.alu + int64(l.nAccess) + int64(l.ldsAccess)
		c.busySum += busy
		if busy > c.busyMax {
			c.busyMax = busy
		}
		if l.alu > aluMax {
			aluMax = l.alu
		}
		c.aluOps += l.alu
		c.accesses += int64(l.nAccess)
		c.atomics += l.atomics
	}
	c.cycles = aluMax*cm.ALUOp + c.atomics*cm.AtomicOp
	for k := 0; k < w.nOrds; k++ {
		c.cycles += cm.MemIssue
		for _, seg := range w.ords[k].segs {
			c.transactions++
			if cache.touch(seg) {
				c.cacheHits++
				c.cycles += cm.MemPerHit
			} else {
				c.cycles += cm.MemPerTransaction
			}
		}
	}
	ldsCycles, ldsAccesses := w.ldsCost(cm)
	c.cycles += ldsCycles
	c.ldsAccesses = ldsAccesses
	return c
}

// Ctx is the view a single work-item (lane) has of the device while a kernel
// body runs: its ids plus accounted memory and ALU operations. A Ctx is only
// valid for the duration of the kernel body invocation it is passed to.
type Ctx struct {
	// Global, Local and Group are the work-item's global id, id within its
	// workgroup, and workgroup id.
	Global, Local, Group int32

	cm      *CostModel
	wf      *wfAcc
	laneIdx int
	fi      *FaultInjector // nil unless the device has an armed injector
	launch  uint64         // device launch ordinal (fault-decision key)
}

// Op charges n ALU operations to this lane.
func (c *Ctx) Op(n int) { c.wf.lanes[c.laneIdx].alu += int64(n) }

// Ld loads element i of b, accounting one global memory access. With a
// fault injector armed the load may return a bit-flipped value, and an
// out-of-range index returns poison (0) instead of panicking.
func (c *Ctx) Ld(b *BufInt32, i int32) int32 {
	c.wf.record(c.laneIdx, b.id, i, c.cm.SegmentElems)
	if c.fi != nil {
		return c.fi.ld(c.launch, c.Global, c.wf.lanes[c.laneIdx].nAccess, b, i)
	}
	return b.data[i]
}

// St stores v to element i of b, accounting one global memory access.
// Plain stores must not race with other lanes' accesses to the same element
// within one launch; use the Atomic variants for communication. With a
// fault injector armed an out-of-range store is dropped instead of
// panicking.
func (c *Ctx) St(b *BufInt32, i int32, v int32) {
	c.wf.record(c.laneIdx, b.id, i, c.cm.SegmentElems)
	if c.fi != nil && !c.fi.stOK(b, i) {
		return
	}
	b.data[i] = v
}

// LdShared is Ld for memory that another work-item may be writing with
// StShared in the same launch: the host access is a relaxed atomic so the
// race is well-defined, but the simulated cost is that of an ordinary
// load — on GCN-class hardware relaxed atomic loads are plain VMEM
// operations, unlike the read-modify-write atomics AtomicAdd et al. model
// (which pay the AtomicOp serialization charge). The fused coloring
// kernels use this to read the live color array while winners publish
// their colors in the same pass.
func (c *Ctx) LdShared(b *BufInt32, i int32) int32 {
	c.wf.record(c.laneIdx, b.id, i, c.cm.SegmentElems)
	if c.fi != nil {
		return c.fi.ldShared(c.launch, c.Global, c.wf.lanes[c.laneIdx].nAccess, b, i)
	}
	return atomic.LoadInt32(&b.data[i])
}

// StShared is St with a relaxed-atomic host store, the writer side of the
// LdShared contract. Cost accounting is identical to St.
func (c *Ctx) StShared(b *BufInt32, i int32, v int32) {
	c.wf.record(c.laneIdx, b.id, i, c.cm.SegmentElems)
	if c.fi != nil && !c.fi.stOK(b, i) {
		return
	}
	atomic.StoreInt32(&b.data[i], v)
}
