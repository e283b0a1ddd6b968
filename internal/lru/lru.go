// Package lru is the bounded map every serving cache is built on: the
// result cache, the idempotency map and the request memo of the admission
// front door, the generator-spec cache, a server's resident version store
// and a coordinator's version-owner table. Each caller keeps its own rules
// (which keys it ignores, what it copies in) around one Cache.
package lru

import "sync"

// Cache is a fixed-capacity map that evicts its least recently used entry
// when a Put would take it past its capacity. Get and Put refresh an
// entry's recency; Update and Snapshot leave it. A Cache with a capacity
// of 0 or less holds nothing. Create one with New; all methods are safe
// for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	items map[K]*node[K, V]
	// root is the sentinel of the recency ring: root.next is the most
	// recently used entry, root.prev the least.
	root   node[K, V]
	evicts int64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// Entry is one key and its value in a Snapshot.
type Entry[K comparable, V any] struct {
	Key   K
	Value V
}

// New returns an empty Cache that holds at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: capacity, items: make(map[K]*node[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value under k and makes it the most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	n.unlink()
	c.link(n)
	return n.val, true
}

// Put stores v under k as the most recently used entry, replacing any
// value k held. A new key past capacity evicts the least recently used
// entry, whose node it reuses, and counts the eviction.
func (c *Cache[K, V]) Put(k K, v V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	switch {
	case ok:
		n.val = v
		n.unlink()
	case len(c.items) >= c.cap:
		n = c.root.prev
		c.remove(n)
		c.evicts++
		n.key, n.val = k, v
		c.items[k] = n
	default:
		n = &node[K, V]{key: k, val: v}
		c.items[k] = n
	}
	c.link(n)
}

// Delete removes the entry under k, if there is one.
func (c *Cache[K, V]) Delete(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[k]; ok {
		c.remove(n)
	}
}

// Update calls fn on the value under k, if there is one, while holding
// the lock, so that a check and the change it decides on are one atomic
// step: fn may change the value in place, and returning false deletes
// the entry; fn must not call c. Update leaves recency as it was and
// reports whether it deleted the entry.
func (c *Cache[K, V]) Update(k K, fn func(v *V) (keep bool)) (deleted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok || fn(&n.val) {
		return false
	}
	c.remove(n)
	return true
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Evictions returns how many entries Put has evicted.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicts
}

// Snapshot returns every entry, least recently used first, so that
// putting them in order into an empty Cache reproduces the recency order.
func (c *Cache[K, V]) Snapshot() []Entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[K, V], 0, len(c.items))
	for n := c.root.prev; n != &c.root; n = n.prev {
		out = append(out, Entry[K, V]{Key: n.key, Value: n.val})
	}
	return out
}

// link puts n at the front of the recency ring.
func (c *Cache[K, V]) link(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	c.root.next.prev = n
	c.root.next = n
}

// remove takes n out of the ring and the map.
func (c *Cache[K, V]) remove(n *node[K, V]) {
	n.unlink()
	delete(c.items, n.key)
}

// unlink takes n out of the recency ring.
func (n *node[K, V]) unlink() {
	n.prev.next, n.next.prev = n.next, n.prev
}
