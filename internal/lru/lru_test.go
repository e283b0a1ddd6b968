package lru

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// keys lists c's keys, least recently used first.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	for _, e := range c.Snapshot() {
		out = append(out, e.Key)
	}
	return out
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int, string](3)
	for i := 1; i <= 5; i++ {
		c.Put(i, fmt.Sprint(i))
	}
	if got := keys(c); !slices.Equal(got, []int{3, 4, 5}) {
		t.Fatalf("keys after 5 puts into 3 slots = %v, want [3 4 5]", got)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("evicted key 1 still answers")
	}
	if n, ev := c.Len(), c.Evictions(); n != 3 || ev != 2 {
		t.Fatalf("Len, Evictions = %d, %d; want 3, 2", n, ev)
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("c", 3) // b is now the least recently used
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although a was read after it")
	}
	if got := keys(c); !slices.Equal(got, []string{"a", "c"}) {
		t.Fatalf("keys = %v, want [a c]", got)
	}
}

func TestPutRefreshesAndReplaces(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh: b is now the least recently used
	c.Put("c", 3)
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = %d, %v; want the replacing 10", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although a was put after it")
	}
	if ev := c.Evictions(); ev != 1 {
		t.Fatalf("Evictions = %d; a refresh is not an eviction, want 1", ev)
	}
}

func TestZeroCapacityHoldsNothing(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[int, int](capacity)
		c.Put(1, 1)
		if _, ok := c.Get(1); ok || c.Len() != 0 || c.Evictions() != 0 || len(c.Snapshot()) != 0 {
			t.Fatalf("capacity %d: held an entry (Len %d, Evictions %d)", capacity, c.Len(), c.Evictions())
		}
	}
}

func TestDelete(t *testing.T) {
	c := New[int, int](3)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Delete(1)
	c.Delete(7) // absent: no effect
	if _, ok := c.Get(1); ok {
		t.Fatal("deleted key still answers")
	}
	if got := keys(c); !slices.Equal(got, []int{2}) {
		t.Fatalf("keys = %v, want [2]", got)
	}
	if ev := c.Evictions(); ev != 0 {
		t.Fatalf("Evictions = %d; a delete is not an eviction", ev)
	}
	// The freed slot takes a new key without evicting.
	c.Put(3, 3)
	c.Put(4, 4)
	if c.Len() != 3 || c.Evictions() != 0 {
		t.Fatalf("Len, Evictions = %d, %d; want 3, 0", c.Len(), c.Evictions())
	}
}

func TestUpdate(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	// Change in place, keep: no deletion, recency untouched.
	if c.Update("a", func(v *int) bool { *v = 5; return true }) {
		t.Fatal("Update reported a deletion it was not asked for")
	}
	if got := keys(c); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("keys after Update = %v; Update must not refresh recency", got)
	}
	if v, _ := c.Get("a"); v != 5 {
		t.Fatalf("Get(a) = %d after Update set 5", v)
	}
	// Decline: the entry goes.
	if !c.Update("b", func(v *int) bool { return *v != 2 }) {
		t.Fatal("Update did not report the deletion")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived an Update that returned false")
	}
	// Absent key: fn is not called.
	if c.Update("z", func(*int) bool { t.Fatal("fn called for an absent key"); return false }) {
		t.Fatal("Update deleted an absent key")
	}
}

func TestSnapshotReplaysRecency(t *testing.T) {
	c := New[int, int](4)
	for i := 0; i < 4; i++ {
		c.Put(i, i*i)
	}
	c.Get(0)
	c.Get(2)
	snap := c.Snapshot()
	if got := keys(c); !slices.Equal(got, []int{1, 3, 0, 2}) {
		t.Fatalf("snapshot order = %v, want oldest first [1 3 0 2]", got)
	}
	re := New[int, int](4)
	for _, e := range snap {
		re.Put(e.Key, e.Value)
	}
	if !slices.Equal(re.Snapshot(), snap) {
		t.Fatalf("replayed snapshot %v, want %v", re.Snapshot(), snap)
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := (g*7 + i) % 40
				c.Put(k, i)
				c.Get(k + 1)
				c.Update(k+2, func(v *int) bool { return *v%3 != 0 })
				if i%50 == 0 {
					c.Delete(k)
					c.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if n, snap := c.Len(), len(c.Snapshot()); n > 16 || n != snap {
		t.Fatalf("Len %d, snapshot %d; want equal and at most 16", n, snap)
	}
}

func TestHitAllocatesNothing(t *testing.T) {
	c := New[[32]byte, *int](8)
	var k [32]byte
	v := 1
	c.Put(k, &v)
	if a := testing.AllocsPerRun(100, func() { c.Get(k) }); a != 0 {
		t.Fatalf("Get hit allocates %.1f times, want 0", a)
	}
	// At capacity a new key reuses the evicted entry's node.
	for i := 1; i < 8; i++ {
		k[0] = byte(i)
		c.Put(k, &v)
	}
	i := 8
	if a := testing.AllocsPerRun(100, func() {
		k[0] = byte(i)
		i++
		c.Put(k, &v)
	}); a != 0 {
		t.Fatalf("Put past capacity allocates %.1f times, want 0", a)
	}
}
