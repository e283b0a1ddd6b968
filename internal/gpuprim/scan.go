// Package gpuprim provides device-side parallel primitives on the SIMT
// simulator: work-efficient exclusive prefix sum (Blelloch scan) and
// flag-based stream compaction. The coloring algorithms use compaction to
// rebuild their worklists each iteration the way real GPU implementations
// do — with properly costed kernels and a deterministic, order-preserving
// result — instead of atomic appends whose output order depends on timing.
package gpuprim

import (
	"fmt"

	"gcolor/internal/simt"
)

// Charger receives every kernel launch a primitive performs so the caller
// can fold the costs into its own accounting.
type Charger func(*simt.RunResult)

// ScanScratch owns the intermediate block-sum buffers a scan needs, one
// pair per recursion level, so repeated scans by a long-lived caller (the
// coloring runner compacts its worklist every iteration) allocate nothing.
// Buffers are kept at the exact length each level needs and re-acquired
// from the device arena when the length changes, which keeps a warm
// scratch bit-identical to a cold one — including under fault injection,
// where buffer bounds are observable. A ScanScratch belongs to one device
// and must not be used concurrently.
type ScanScratch struct {
	dev    *simt.Device
	levels []scanLevel
	// blocks holds the block-scan kernel's per-shape costs, shared by
	// every recursion level: a block's cost depends only on its live count.
	blocks simt.ShapeMemo
}

type scanLevel struct {
	sums, offs *simt.BufInt32
}

// NewScanScratch returns an empty scratch for dev; buffers are acquired
// lazily on first use.
func NewScanScratch(dev *simt.Device) *ScanScratch {
	return &ScanScratch{dev: dev}
}

// Release hands every held buffer back to the device arena. The scratch
// remains usable and will re-acquire on next use.
func (s *ScanScratch) Release() {
	for _, l := range s.levels {
		if l.sums != nil {
			s.dev.Release(l.sums)
		}
		if l.offs != nil {
			s.dev.Release(l.offs)
		}
	}
	s.levels = s.levels[:0]
}

// fit returns *pb resized to exactly n elements, zeroed, acquiring or
// re-acquiring from the device arena as needed.
func (s *ScanScratch) fit(pb **simt.BufInt32, n int) *simt.BufInt32 {
	if b := *pb; b != nil {
		if b.Len() == n {
			b.Fill(0)
			return b
		}
		s.dev.Release(b)
	}
	*pb = s.dev.AllocInt32(n)
	return *pb
}

func (s *ScanScratch) level(depth int) *scanLevel {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, scanLevel{})
	}
	return &s.levels[depth]
}

// ExclusiveScan computes the exclusive prefix sum of src[0:n] into dst[0:n]
// on the device and returns the total sum. dst must not alias src. Kernel
// launches are reported to charge (which may be nil). Intermediate buffers
// are drawn from and returned to the device arena per call; callers that
// scan repeatedly should hold a ScanScratch and use ExclusiveScanWith.
//
// The implementation is the classic three-phase approach: block-level
// Blelloch scans in LDS, a recursive scan of the per-block totals, and a
// uniform add of the block offsets.
func ExclusiveScan(dev *simt.Device, src, dst *simt.BufInt32, n int, charge Charger) int32 {
	ss := NewScanScratch(dev)
	defer ss.Release()
	return ExclusiveScanWith(dev, src, dst, n, ss, charge)
}

// ExclusiveScanWith is ExclusiveScan drawing its intermediate buffers from
// scratch, which retains them for the next call.
func ExclusiveScanWith(dev *simt.Device, src, dst *simt.BufInt32, n int, scratch *ScanScratch, charge Charger) int32 {
	if n < 0 || n > src.Len() || n > dst.Len() {
		panic(fmt.Sprintf("gpuprim: scan length %d out of range (src %d, dst %d)", n, src.Len(), dst.Len()))
	}
	if b := dev.WorkgroupSize; b&(b-1) != 0 {
		panic(fmt.Sprintf("gpuprim: Blelloch block scan needs a power-of-two workgroup size, got %d", b))
	}
	if charge == nil {
		charge = func(*simt.RunResult) {}
	}
	if scratch == nil || scratch.dev != dev {
		panic("gpuprim: scan scratch missing or bound to another device")
	}
	return scan(dev, src, dst, n, 0, scratch, charge)
}

func scan(dev *simt.Device, src, dst *simt.BufInt32, n, depth int, scratch *ScanScratch, charge Charger) int32 {
	if n == 0 {
		return 0
	}
	block := dev.WorkgroupSize
	numBlocks := (n + block - 1) / block
	lv := scratch.level(depth)
	blockSums := scratch.fit(&lv.sums, numBlocks)

	charge(blockScanKernel(dev, src, dst, blockSums, n, &scratch.blocks))

	if numBlocks == 1 {
		return blockSums.Data()[0]
	}
	// Scan the block sums (recursively; one level suffices for millions of
	// elements) and add each block's offset to its elements.
	sumOffsets := scratch.fit(&lv.offs, numBlocks)
	total := scan(dev, blockSums, sumOffsets, numBlocks, depth+1, scratch, charge)
	charge(uniformAddKernel(dev, dst, sumOffsets, n))
	return total
}

// blockScanKernel performs an exclusive Blelloch scan of each workgroup-
// sized block in LDS and records the block totals.
//
// A block is data-oblivious: its loads and stores are guarded by base+i <
// n, its LDS indices are fixed, and the segment cache starts empty for
// every group, so its cost depends only on its live count t = min(block,
// n-base). The device therefore simulates each t once (memo keeps the
// records) and blockScanHost writes the other blocks' outputs.
func blockScanKernel(dev *simt.Device, src, dst, blockSums *simt.BufInt32, n int, memo *simt.ShapeMemo) *simt.RunResult {
	block := int32(dev.WorkgroupSize)
	numBlocks := (n + dev.WorkgroupSize - 1) / dev.WorkgroupSize
	live := func(g int32) int { return int(min(block, int32(n)-g*block)) }
	host := func(g int32) {
		base := int(g * block)
		blockSums.Data()[g] = blockScanHost(src.Data()[base:base+live(g)], dst.Data()[base:])
	}
	return dev.RunCoopOblivious("scan-block", numBlocks, memo, live, host, func(g *simt.GroupCtx) {
		lds := g.AllocLDS(int(block))
		base := g.ID() * block
		// Load (zero-padded past n).
		g.ForEach(block, func(c *simt.Ctx, i int32) {
			v := int32(0)
			if base+i < int32(n) {
				v = c.Ld(src, base+i)
			}
			c.LdsSt(lds, i, v)
		})
		g.Barrier()
		// Up-sweep (reduce).
		for stride := int32(1); stride < block; stride *= 2 {
			s := stride
			g.ForEach(block/(2*s), func(c *simt.Ctx, i int32) {
				a := 2*s*i + s - 1
				b := 2*s*i + 2*s - 1
				c.Op(1)
				c.LdsSt(lds, b, c.LdsLd(lds, a)+c.LdsLd(lds, b))
			})
			g.Barrier()
		}
		// Record the block total and clear the root.
		g.One(func(c *simt.Ctx) {
			c.St(blockSums, g.ID(), c.LdsLd(lds, block-1))
			c.LdsSt(lds, block-1, 0)
		})
		g.Barrier()
		// Down-sweep.
		for stride := block / 2; stride >= 1; stride /= 2 {
			s := stride
			g.ForEach(block/(2*s), func(c *simt.Ctx, i int32) {
				a := 2*s*i + s - 1
				b := 2*s*i + 2*s - 1
				va := c.LdsLd(lds, a)
				vb := c.LdsLd(lds, b)
				c.Op(1)
				c.LdsSt(lds, a, vb)
				c.LdsSt(lds, b, va+vb)
			})
			g.Barrier()
		}
		// Store.
		g.ForEach(block, func(c *simt.Ctx, i int32) {
			if base+i < int32(n) {
				c.St(dst, base+i, c.LdsLd(lds, i))
			}
		})
	})
}

// blockScanHost writes the exclusive prefix sums of in to out and returns
// their total. Wrapping int32 addition is associative, so this equals the
// Blelloch tree's result.
func blockScanHost(in, out []int32) int32 {
	var sum int32
	for i, v := range in {
		out[i] = sum
		sum += v
	}
	return sum
}

// uniformAddKernel adds each block's scanned offset to its elements.
func uniformAddKernel(dev *simt.Device, dst, offsets *simt.BufInt32, n int) *simt.RunResult {
	wg := int32(dev.WorkgroupSize)
	return dev.Run("scan-add", n, func(c *simt.Ctx) {
		off := c.Ld(offsets, c.Global/wg)
		c.Op(1)
		c.St(dst, c.Global, c.Ld(dst, c.Global)+off)
	})
}

// Compact copies items[i] (for i in [0, n)) whose flags[i] != 0 into out,
// preserving order, and returns the number kept. scratch must hold at least
// n elements and not alias the other buffers; it receives the scanned
// offsets. Kernel launches are reported to charge (which may be nil).
// Intermediate scan buffers are drawn from and returned to the device
// arena per call; repeated callers should hold a ScanScratch and use
// CompactWith.
func Compact(dev *simt.Device, items, flags, out, scratch *simt.BufInt32, n int, charge Charger) int {
	if n == 0 {
		return 0
	}
	ss := NewScanScratch(dev)
	defer ss.Release()
	return CompactWith(dev, items, flags, out, scratch, n, ss, charge)
}

// CompactWith is Compact drawing the scan's intermediate buffers from ss,
// which retains them for the next call.
func CompactWith(dev *simt.Device, items, flags, out, scratch *simt.BufInt32, n int, ss *ScanScratch, charge Charger) int {
	if n == 0 {
		return 0
	}
	if charge == nil {
		charge = func(*simt.RunResult) {}
	}
	// Flags are documented 0/1; scan them directly.
	kept := ExclusiveScanWith(dev, flags, scratch, n, ss, charge)
	charge(dev.Run("compact-scatter", n, func(c *simt.Ctx) {
		if c.Ld(flags, c.Global) != 0 {
			c.St(out, c.Ld(scratch, c.Global), c.Ld(items, c.Global))
		}
	}))
	return int(kept)
}
