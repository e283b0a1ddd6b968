package simt

import "testing"

func TestSegCacheBasics(t *testing.T) {
	c := newSegCache(2)
	if c.touch(1) {
		t.Error("cold cache reported a hit")
	}
	if !c.touch(1) {
		t.Error("immediate re-touch missed")
	}
	c.touch(2)
	if !c.touch(2) || !c.touch(1) {
		t.Error("both entries should fit in capacity 2")
	}
	c.touch(3) // evicts the oldest (1)
	if c.touch(1) {
		t.Error("evicted entry reported a hit")
	}
}

func TestSegCacheNilIsOff(t *testing.T) {
	var c *segCache
	if c.touch(5) {
		t.Error("nil cache reported a hit")
	}
	c.reset() // must not panic
	if newSegCache(0) != nil {
		t.Error("capacity 0 should disable the cache")
	}
}

func TestSegCacheReset(t *testing.T) {
	c := newSegCache(4)
	c.touch(1)
	c.reset()
	if c.touch(1) {
		t.Error("reset cache reported a hit")
	}
}

func TestCacheModelReducesKernelCost(t *testing.T) {
	run := func(cacheSegs int) (*RunResult, *Device) {
		d := NewDevice()
		d.Workers = 1
		d.WorkgroupSize = 64
		d.Cost.CacheSegments = cacheSegs
		data := d.AllocInt32(64)
		res := d.Run("reread", 64, func(c *Ctx) {
			c.Ld(data, c.Global) // 4 segments, cold
			c.Ld(data, c.Global) // same 4 segments again
		})
		return res, d
	}
	cold, dOff := run(0)
	warm, dOn := run(16)
	if cold.Stats.CacheHits != 0 {
		t.Errorf("cache-off run recorded %d hits", cold.Stats.CacheHits)
	}
	if warm.Stats.CacheHits != 4 {
		t.Errorf("CacheHits = %d, want 4 (second pass over 4 segments)", warm.Stats.CacheHits)
	}
	// Cost difference: 4 transactions at hit price instead of miss price.
	saved := 4 * (dOff.Cost.MemPerTransaction - dOn.Cost.MemPerHit)
	if cold.Stats.WavefrontCost[0]-warm.Stats.WavefrontCost[0] != saved {
		t.Errorf("cost delta = %d, want %d",
			cold.Stats.WavefrontCost[0]-warm.Stats.WavefrontCost[0], saved)
	}
}

func TestCacheIsPerGroup(t *testing.T) {
	// Two groups touching the same segment: each pays a cold miss (the
	// cache resets per workgroup).
	d := NewDevice()
	d.Workers = 1
	d.WorkgroupSize = 64
	d.Cost.CacheSegments = 16
	data := d.AllocInt32(4)
	res := d.Run("cross-group", 128, func(c *Ctx) {
		c.Ld(data, 0)
		c.Ld(data, 0)
	})
	// Within each group's wavefront: ordinal 1 cold, ordinal 2 hit -> one
	// hit per wavefront, 2 wavefronts... per group one wavefront of 64:
	// 128 items / 64 wg = 2 groups, each 1 wavefront.
	if res.Stats.CacheHits != 2 {
		t.Errorf("CacheHits = %d, want 2 (one per group, no cross-group reuse)", res.Stats.CacheHits)
	}
}

// TestSegmentKeysDistinctAcrossBufferIDs: buffers whose ids agree in their
// low 24 bits still map to distinct segments (the key once kept only those
// bits), so a load from one is never a cache hit on the other's line.
func TestSegmentKeysDistinctAcrossBufferIDs(t *testing.T) {
	cost := func(highID bool) int64 {
		d := NewDevice()
		a := d.BindInt32(make([]int32, 16)) // id 1
		if highID {
			d.nextBuf.Store(1 << 24) // the next id is 1<<24 + 1
		}
		b := d.BindInt32(make([]int32, 16))
		return d.Run("pair", 1, func(c *Ctx) {
			c.Ld(a, 0)
			c.Ld(b, 0)
		}).Stats.GroupCost[0]
	}
	if lo, hi := cost(false), cost(true); lo != hi {
		t.Errorf("buffer ids 1 and 1<<24+1 cost %d, ids 1 and 2 cost %d", hi, lo)
	}
}
