package simt

import (
	"math/rand"
	"slices"
	"testing"
)

// ldsDevice: 64-wide wavefronts so bank patterns are classic.
func ldsDevice() *Device {
	d := NewDevice()
	d.Workers = 1
	d.WorkgroupSize = 64
	return d
}

func TestLDSRoundTrip(t *testing.T) {
	d := ldsDevice()
	out := d.AllocInt32(64)
	d.RunCoop("lds-rt", 1, func(g *GroupCtx) {
		lds := g.AllocLDS(64)
		g.ForEach(64, func(c *Ctx, i int32) {
			c.LdsSt(lds, i, i*3)
		})
		g.Barrier()
		g.ForEach(64, func(c *Ctx, i int32) {
			c.St(out, i, c.LdsLd(lds, i))
		})
	})
	for i, v := range out.Data() {
		if v != int32(i*3) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
}

func TestLDSConflictFreeStride1(t *testing.T) {
	// 64 lanes, stride 1 over 32 banks: two distinct addresses per bank??
	// No — per *instruction* each lane makes one access; lanes 0..63 hit
	// addresses 0..63, so banks see exactly two distinct addresses each:
	// cost factor 2. A 32-lane wavefront would be conflict-free.
	d := ldsDevice()
	d.WavefrontWidth = 32
	d.WorkgroupSize = 32
	res := d.RunCoop("lds-s1", 1, func(g *GroupCtx) {
		lds := g.AllocLDS(32)
		g.ForEach(32, func(c *Ctx, i int32) {
			c.LdsSt(lds, i, i)
		})
	})
	want := d.Cost.LDSOp // one instruction, conflict-free
	if got := res.Stats.GroupCost[0]; got != want {
		t.Errorf("stride-1 LDS cost = %d, want %d", got, want)
	}
	if res.Stats.LDSAccesses != 32 {
		t.Errorf("LDSAccesses = %d, want 32", res.Stats.LDSAccesses)
	}
}

func TestLDSBankConflictStride32(t *testing.T) {
	// Stride 32 with 32 banks: every lane hits bank 0 at a distinct
	// address — full serialization.
	d := ldsDevice()
	d.WavefrontWidth = 32
	d.WorkgroupSize = 32
	res := d.RunCoop("lds-s32", 1, func(g *GroupCtx) {
		lds := g.AllocLDS(32 * 32)
		g.ForEach(32, func(c *Ctx, i int32) {
			c.LdsSt(lds, i*32, i)
		})
	})
	want := d.Cost.LDSOp * 32
	if got := res.Stats.GroupCost[0]; got != want {
		t.Errorf("stride-32 LDS cost = %d, want %d (full conflict)", got, want)
	}
}

func TestLDSBroadcastIsFree(t *testing.T) {
	// All lanes reading the same address is a broadcast: cost factor 1.
	d := ldsDevice()
	d.WavefrontWidth = 32
	d.WorkgroupSize = 32
	res := d.RunCoop("lds-bcast", 1, func(g *GroupCtx) {
		lds := g.AllocLDS(4)
		g.ForEach(32, func(c *Ctx, i int32) {
			c.LdsLd(lds, 0)
		})
	})
	want := d.Cost.LDSOp
	if got := res.Stats.GroupCost[0]; got != want {
		t.Errorf("broadcast LDS cost = %d, want %d", got, want)
	}
}

func TestLDSIsGroupPrivate(t *testing.T) {
	// Each group allocates its own LDS; writes must not leak across groups.
	d := ldsDevice()
	d.Workers = 2
	out := d.AllocInt32(8)
	d.RunCoop("lds-priv", 8, func(g *GroupCtx) {
		lds := g.AllocLDS(1)
		g.One(func(c *Ctx) {
			c.LdsSt(lds, 0, g.ID()+100)
		})
		g.Barrier()
		g.One(func(c *Ctx) {
			c.St(out, g.ID(), c.LdsLd(lds, 0))
		})
	})
	for i, v := range out.Data() {
		if v != int32(i)+100 {
			t.Fatalf("group %d read %d, want %d (LDS leaked across groups?)", i, v, i+100)
		}
	}
}

func TestLDSCountsTowardUtilization(t *testing.T) {
	// A lone active lane doing only LDS work must still register as busy.
	d := ldsDevice()
	res := d.RunCoop("lds-util", 1, func(g *GroupCtx) {
		lds := g.AllocLDS(4)
		g.One(func(c *Ctx) {
			c.LdsSt(lds, 0, 1)
		})
	})
	if u := res.Stats.SIMDUtilization(); u <= 0 {
		t.Errorf("utilization = %v, want > 0", u)
	}
}

// TestLDSCostMatchesSortedCount: the one-pass conflict check charges
// exactly what sorting every ordinal does, for power-of-two and odd bank
// counts, broadcasts, and models with more banks than the fast path
// covers.
func TestLDSCostMatchesSortedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, banks := range []int32{1, 7, 24, 32, 64, 128} {
		cm := DefaultCostModel()
		cm.LDSBanks = banks
		for trial := 0; trial < 200; trial++ {
			w := newWfAcc(64)
			span := int32(1 + rng.Intn(256)) // small spans force broadcasts
			for l := 0; l < 64; l++ {
				for k := rng.Intn(4); k >= 0; k-- {
					w.recordLDS(l, int32(rng.Intn(int(span))), banks)
				}
			}
			var want int64
			for k := 0; k < w.nLdsOrds; k++ {
				want += cm.LDSOp * int64(ldsWorstBank(slices.Clone(w.ldsOrds[k].pairs)))
			}
			if got, _ := w.ldsCost(&cm); got != want {
				t.Fatalf("banks %d trial %d: ldsCost %d, sorted count %d", banks, trial, got, want)
			}
		}
	}
}
