package simt

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// blockSum is a data-oblivious cooperative kernel over src[0:n]: each
// group doubles its live items into dst, reduces them through an LDS tree
// whose reads conflict on the bank model, spends one ballot per chunk,
// and publishes its total to sums[g] and, atomically, to total[0]. Every
// branch and address depends only on the group's live count.
type blockSum struct {
	d                     *Device
	src, dst, sums, total *BufInt32
	n                     int
	simulated             atomic.Int64 // groups executed lane by lane
}

func newBlockSum(d *Device, n int) *blockSum {
	groups := (n + d.WorkgroupSize - 1) / d.WorkgroupSize
	k := &blockSum{d: d, n: n,
		src: d.AllocInt32(n), dst: d.AllocInt32(n),
		sums: d.AllocInt32(groups), total: d.AllocInt32(1)}
	for i := range k.src.data {
		k.src.data[i] = int32(i*7919%1000) - 300
	}
	return k
}

func (k *blockSum) live(g int32) int {
	size := int32(k.d.WorkgroupSize)
	return int(min(size, int32(k.n)-g*size))
}

func (k *blockSum) host(g int32) {
	base := int(g) * k.d.WorkgroupSize
	var s int32
	for i := base; i < base+k.live(g); i++ {
		k.dst.data[i] = 2 * k.src.data[i]
		s += k.src.data[i]
	}
	k.sums.data[g] = s
	k.total.data[0] += s
}

func (k *blockSum) body(g *GroupCtx) {
	k.simulated.Add(1)
	size := int32(g.Size())
	lds := g.AllocLDS(int(size))
	base := g.ID() * size
	g.ForEach(size, func(c *Ctx, i int32) {
		v := int32(0)
		if base+i < int32(k.n) {
			v = c.Ld(k.src, base+i)
			c.St(k.dst, base+i, 2*v)
		}
		c.LdsSt(lds, i, v)
	})
	g.Barrier()
	for s := size / 2; s >= 1; s /= 2 {
		g.ForEach(s, func(c *Ctx, i int32) {
			c.Op(1)
			c.LdsSt(lds, i, c.LdsLd(lds, 2*i)+c.LdsLd(lds, 2*i+1))
		})
		g.Barrier()
	}
	g.Any(int32(min(size, int32(k.n)-base)), func(c *Ctx, i int32) bool {
		c.Op(1)
		return false
	})
	g.One(func(c *Ctx) {
		s := c.LdsLd(lds, 0)
		c.St(k.sums, g.ID(), s)
		c.AtomicAdd(k.total, 0, s)
	})
}

func (k *blockSum) groups() int { return (k.n + k.d.WorkgroupSize - 1) / k.d.WorkgroupSize }

func (k *blockSum) runFull() *RunResult { return k.d.RunCoop("block-sum", k.groups(), k.body) }

func (k *blockSum) runReplay(memo *ShapeMemo) *RunResult {
	return k.d.RunCoopOblivious("block-sum", k.groups(), memo, k.live, k.host, k.body)
}

// runDiff describes how two launches differ, or returns "". WavefrontCost
// is compared as a multiset: its order follows how phase-A workers
// interleave.
func runDiff(a, b *RunResult) string {
	norm := func(r *RunResult) RunResult {
		c := *r
		c.Stats.WavefrontCost = slices.Clone(r.Stats.WavefrontCost)
		slices.Sort(c.Stats.WavefrontCost)
		return c
	}
	x, y := norm(a), norm(b)
	if !reflect.DeepEqual(x.Stats, y.Stats) {
		return fmt.Sprintf("stats %+v\nvs    %+v", x.Stats, y.Stats)
	}
	if !reflect.DeepEqual(x.Sched, y.Sched) {
		return fmt.Sprintf("schedule %+v vs %+v", x.Sched, y.Sched)
	}
	return ""
}

func (k *blockSum) outputs() [][]int32 {
	return [][]int32{k.dst.data, k.sums.data, k.total.data}
}

// obliviousGeometries are device shapes that exercise every input of a
// group's cost: wavefront width, cache on and off, power-of-two and odd
// bank counts, and more banks than the sort-free LDS check covers.
func obliviousGeometries() map[string]func() *Device {
	return map[string]func() *Device{
		"default": NewDevice,
		"narrow":  func() *Device { d := NewDevice(); d.WavefrontWidth, d.WorkgroupSize = 8, 64; return d },
		"nocache": func() *Device { d := NewDevice(); d.Cost.CacheSegments = 0; return d },
		"tiny-cache": func() *Device {
			d := NewDevice()
			d.WorkgroupSize, d.Cost.CacheSegments = 64, 3
			return d
		},
		"banks24":  func() *Device { d := NewDevice(); d.Cost.LDSBanks = 24; return d },
		"banks128": func() *Device { d := NewDevice(); d.Cost.LDSBanks = 128; return d },
	}
}

// TestRunCoopObliviousMatchesRunCoop: replayed launches report exactly the
// stats, schedule and outputs of full simulation, with one memo carried
// across launches of different lengths and both scheduling policies.
func TestRunCoopObliviousMatchesRunCoop(t *testing.T) {
	for name, mk := range obliviousGeometries() {
		for _, p := range []Policy{Static, Stealing} {
			var memo ShapeMemo
			for _, n := range []int{0, 1, 63, 64, 65, 1000, 4097, 1000} {
				full, replay := mk(), mk()
				full.Policy, replay.Policy = p, p
				full.Workers = 4
				kf, kr := newBlockSum(full, n), newBlockSum(replay, n)
				rf, rr := kf.runFull(), kr.runReplay(&memo)
				if d := runDiff(rf, rr); d != "" {
					t.Fatalf("%s/%v/n=%d: replay differs from full simulation: %s", name, p, n, d)
				}
				if !reflect.DeepEqual(kf.outputs(), kr.outputs()) {
					t.Fatalf("%s/%v/n=%d: replay outputs differ from full simulation", name, p, n)
				}
			}
		}
	}
}

// TestRunCoopObliviousSimulatesEachShapeOnce: a shape is simulated the
// first time the memo meets it and replayed afterwards; a change of cost
// model starts the memo over.
func TestRunCoopObliviousSimulatesEachShapeOnce(t *testing.T) {
	d := NewDevice()
	var memo ShapeMemo
	steps := []struct {
		n    int
		want int64 // groups simulated
	}{
		{10*256 + 5, 2}, // shapes 256 and 5
		{7*256 + 5, 0},
		{3 * 256, 0},
		{3*256 + 9, 1}, // shape 9 is new
	}
	for _, s := range steps {
		k := newBlockSum(d, s.n)
		k.runReplay(&memo)
		if got := k.simulated.Load(); got != s.want {
			t.Errorf("n=%d: %d groups simulated, want %d", s.n, got, s.want)
		}
	}
	d.Cost.ALUOp++
	k := newBlockSum(d, 2*256)
	k.runReplay(&memo)
	if got := k.simulated.Load(); got != 1 {
		t.Errorf("after a cost-model change: %d groups simulated, want 1", got)
	}
}

// TestRunCoopObliviousFallsBack: with a fault injector attached (armed or
// not) or a workgroup size that is not a multiple of the segment size,
// every group is simulated, the result equals RunCoop's, and the launch
// counter advances by one per launch either way.
func TestRunCoopObliviousFallsBack(t *testing.T) {
	const n = 5*64 + 3
	cases := map[string]func() *Device{
		"disarmed": func() *Device {
			d := NewDevice()
			d.WorkgroupSize = 64
			d.Fault = NewFaultInjector(1, 0.05)
			d.Fault.Disarm()
			return d
		},
		"armed": func() *Device {
			d := NewDevice()
			d.WorkgroupSize = 64
			d.Fault = &FaultInjector{Seed: 3, StallRate: 0.3, StallFactor: 5}
			return d
		},
		"unaligned-segments": func() *Device {
			d := NewDevice()
			d.WavefrontWidth, d.WorkgroupSize = 16, 64
			d.Cost.SegmentElems = 24
			return d
		},
	}
	for name, mk := range cases {
		full, replay := mk(), mk()
		var memo ShapeMemo
		for launch := uint64(1); launch <= 3; launch++ {
			kf, kr := newBlockSum(full, n), newBlockSum(replay, n)
			rf, rr := kf.runFull(), kr.runReplay(&memo)
			if d := runDiff(rf, rr); d != "" {
				t.Fatalf("%s launch %d: %s", name, launch, d)
			}
			if !reflect.DeepEqual(kf.outputs(), kr.outputs()) {
				t.Fatalf("%s launch %d: outputs differ", name, launch)
			}
			if got := kr.simulated.Load(); got != int64(kr.groups()) {
				t.Errorf("%s launch %d: %d of %d groups simulated, want all", name, launch, got, kr.groups())
			}
			if got := replay.launches.Load(); got != launch {
				t.Errorf("%s: launch counter %d after %d launches", name, got, launch)
			}
		}
	}
}
