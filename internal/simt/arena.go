package simt

import (
	"math/bits"
	"sync"
)

// Device memory arena. Repeated kernel launches over same-sized graphs used
// to rebuild every device buffer from scratch — seven O(n) allocations per
// coloring run, plus scan scratch per compaction and stats slices per
// launch — which made the host-side GC the bottleneck of the serving hot
// path. The arena turns AllocInt32 into a size-bucketed free list: Release
// returns a buffer (poisoned, so use-after-release is loud rather than
// subtle), and the next AllocInt32 of any size that fits the bucket reuses
// the backing array after re-zeroing it. Buffers that are never released
// behave exactly as before — pooling is opt-in per buffer, and the arena
// only ever hands out memory that was explicitly given back.
//
// Determinism: a reused buffer gets a fresh id from the device's id
// counter, exactly like a fresh allocation. Segment keys in the coalescing
// and cache models depend on ids only through equality, so arena reuse is
// invisible to the cost model — runs on a warm arena are bit-identical to
// runs on a cold one.

// poisonValue fills released buffers. Any kernel that reads a released
// buffer sees this pattern instead of another job's data; tests assert its
// absence to prove pooled runners do not leak state across jobs.
const poisonValue = int32(-0x21524111) // 0xDEADBEEF

// PoisonValue returns the sentinel written over released arena buffers
// (exposed for leak tests).
func PoisonValue() int32 { return poisonValue }

// ArenaStats is a point-in-time summary of a device arena.
type ArenaStats struct {
	// Allocs counts AllocInt32 calls served by a fresh heap allocation;
	// Reuses those served from the free list; Releases the buffers given
	// back.
	Allocs   int64
	Reuses   int64
	Releases int64
	// PooledBufs and PooledBytes describe the free list right now.
	PooledBufs  int
	PooledBytes int64
}

// arena is the size-bucketed free list behind Device.AllocInt32. Buckets
// are indexed by ceil-log2 of the capacity, so any released buffer serves
// later requests up to its capacity class.
type arena struct {
	mu      sync.Mutex
	buckets [33][]*BufInt32
	stats   ArenaStats
}

// bucketFor returns the bucket index of a capacity (ceil-log2, min 0).
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// take pops a pooled buffer whose capacity fits n, or returns nil.
// The caller re-zeroes and re-slices it.
func (a *arena) take(n int) *BufInt32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	for c := bucketFor(n); c < len(a.buckets); c++ {
		if l := len(a.buckets[c]); l > 0 {
			b := a.buckets[c][l-1]
			a.buckets[c][l-1] = nil
			a.buckets[c] = a.buckets[c][:l-1]
			a.stats.Reuses++
			a.stats.PooledBufs--
			a.stats.PooledBytes -= 4 * int64(cap(b.data))
			return b
		}
	}
	a.stats.Allocs++
	return nil
}

func (a *arena) put(b *BufInt32) {
	c := bucketFor(cap(b.data))
	a.mu.Lock()
	a.buckets[c] = append(a.buckets[c], b)
	a.stats.Releases++
	a.stats.PooledBufs++
	a.stats.PooledBytes += 4 * int64(cap(b.data))
	a.mu.Unlock()
}

func (a *arena) reset() {
	a.mu.Lock()
	for i := range a.buckets {
		a.buckets[i] = nil
	}
	a.stats.PooledBufs = 0
	a.stats.PooledBytes = 0
	a.mu.Unlock()
}

func (a *arena) snapshot() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Release poisons b and returns its backing array to the device arena for
// reuse by a later AllocInt32. Only arena-allocated buffers may be
// released; releasing a bound buffer would poison memory the caller still
// owns (a graph's CSR arrays, say), so that is a panic, as is releasing
// the same buffer twice. After Release the buffer must not be used.
func (d *Device) Release(b *BufInt32) {
	if !b.pooled {
		panic("simt: Release of a buffer not allocated by AllocInt32")
	}
	if b.released {
		panic("simt: double Release of device buffer")
	}
	b.released = true
	full := b.data[:cap(b.data)]
	for i := range full {
		full[i] = poisonValue
	}
	b.data = full
	d.arena.put(b)
}

// ResetArena drops every pooled buffer, returning the memory to the Go
// heap. Outstanding (un-released) buffers are unaffected.
func (d *Device) ResetArena() { d.arena.reset() }

// ArenaStats snapshots the device arena counters.
func (d *Device) ArenaStats() ArenaStats { return d.arena.snapshot() }

// Rebind points an existing bound buffer at a new backing slice, assigning
// a fresh buffer id (the id only needs to be distinct within a launch for
// the coalescing model; a rebound buffer is, for the simulator, a new
// buffer). It exists so long-lived runners can re-target their CSR views at
// a new graph without allocating new buffer headers. Arena-allocated
// buffers cannot be rebound — their backing array belongs to the arena.
func (d *Device) Rebind(b *BufInt32, data []int32) {
	if b.pooled {
		panic("simt: Rebind of an arena-allocated buffer")
	}
	b.id = d.nextBuf.Add(1)
	b.data = data
}

// --- pooled []int64 scratch for launch statistics ---

// i64pool recycles the per-launch int64 slices (GroupCost, WavefrontCost,
// CUBusy/CUFinish) so steady-state kernel launches stop churning the GC.
// Buckets by ceil-log2 capacity, same scheme as the buffer arena.
type i64pool struct {
	mu      sync.Mutex
	buckets [33][][]int64
}

// get returns a zeroed slice of length n (capacity possibly larger).
func (p *i64pool) get(n int) []int64 {
	if n == 0 {
		return nil
	}
	p.mu.Lock()
	for c := bucketFor(n); c < len(p.buckets); c++ {
		if l := len(p.buckets[c]); l > 0 {
			s := p.buckets[c][l-1]
			p.buckets[c][l-1] = nil
			p.buckets[c] = p.buckets[c][:l-1]
			p.mu.Unlock()
			s = s[:n]
			for i := range s {
				s[i] = 0
			}
			return s
		}
	}
	p.mu.Unlock()
	return make([]int64, n, 1<<bucketFor(n))
}

// getCap returns an empty slice with at least the given capacity, for
// append-style accumulation (WavefrontCost).
func (p *i64pool) getCap(c int) []int64 {
	if c == 0 {
		return nil
	}
	return p.get(c)[:0]
}

func (p *i64pool) put(s []int64) {
	if cap(s) == 0 {
		return
	}
	// File under floor-log2 of the capacity: every slice in class c then has
	// cap >= 1<<c, so get can reslice any class-c entry to any n with
	// bucketFor(n) == c. (Ceil-log2 would admit, say, a cap-5 slice into the
	// class that serves n=8.)
	c := bits.Len(uint(cap(s))) - 1
	s = s[:0]
	p.mu.Lock()
	p.buckets[c] = append(p.buckets[c], s)
	p.mu.Unlock()
}

// Recycle returns rr's statistics slices (and the RunResult header itself)
// to the device's launch pools and clears them. Callers that fold a
// launch's numbers into their own accounting and have no further use for
// the RunResult call this to make steady-state launches allocation-free;
// callers that retain RunResults simply never call it and nothing changes.
// The RunResult and its slices must not be used after Recycle.
func (d *Device) Recycle(rr *RunResult) {
	if rr == nil {
		return
	}
	d.i64s.put(rr.Stats.GroupCost)
	d.i64s.put(rr.Stats.WavefrontCost)
	d.i64s.put(rr.Sched.CUBusy)
	d.i64s.put(rr.Sched.CUFinish)
	*rr = RunResult{}
	d.runResults.Put(rr)
}

// getRunResult returns a cleared RunResult header from the device pool.
func (d *Device) getRunResult() *RunResult {
	if v := d.runResults.Get(); v != nil {
		return v.(*RunResult)
	}
	return &RunResult{}
}

// --- pooled phase-A worker scratch ---

// workerScratch is the per-worker execution state of one phase-A worker:
// the wavefront accumulators, the segment cache, and the worker-local
// stats it merges into the launch totals. Pooled per device; entries whose
// geometry no longer matches the device configuration are dropped.
type workerScratch struct {
	width int
	segs  int
	wfs   []*wfAcc // data-parallel kernels use wfs[0]; coop kernels all of them
	cache *segCache
	local KernelStats
	gctx  GroupCtx // reusable cooperative group context
	lds   ldsArena // backing store for AllocLDS, reset per group
}

// getWorkerScratch returns scratch with nWfs wavefront accumulators of the
// device's current width and a segment cache of the current geometry.
func (d *Device) getWorkerScratch(nWfs int) *workerScratch {
	width, segs := d.WavefrontWidth, d.Cost.CacheSegments
	if v := d.workers_.Get(); v != nil {
		ws := v.(*workerScratch)
		if ws.width == width && ws.segs == segs {
			for len(ws.wfs) < nWfs {
				ws.wfs = append(ws.wfs, newWfAcc(width))
			}
			wc := ws.local.WavefrontCost[:0]
			ws.local = KernelStats{width: width, WavefrontCost: wc}
			return ws
		}
	}
	ws := &workerScratch{width: width, segs: segs, cache: newSegCache(segs)}
	ws.local = KernelStats{width: width}
	for len(ws.wfs) < nWfs {
		ws.wfs = append(ws.wfs, newWfAcc(width))
	}
	return ws
}

func (d *Device) putWorkerScratch(ws *workerScratch) {
	d.workers_.Put(ws)
}
