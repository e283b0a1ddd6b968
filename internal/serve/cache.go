package serve

import (
	"container/list"
	"sync"
)

// cacheKey identifies a (graph content, coloring policy) pair: the graph
// fingerprint plus the folded request knobs that can change the coloring.
// The effective shard count is part of the policy fold — a K-shard run and
// a single-device run of the same graph produce different (both proper)
// colorings, and callers pinning Shards expect the one they asked for.
type cacheKey struct {
	fp     uint64
	policy uint64
}

func keyOf(req *Request, fp uint64, shards int) cacheKey {
	k := req.policyKey()
	k ^= uint64(uint32(shards))
	k *= 0x100000001b3
	return cacheKey{fp: fp, policy: k}
}

// resultCache is a fixed-capacity LRU of completed responses, in the
// packed form packResponse makes. Stored responses are treated as
// immutable: lookups return the same *Response to every hit, and every hit
// path hands its caller a private copy via cloneHit. Evictions are counted
// (they used to be silent) so /metricsz can report churn.
type resultCache struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recent; values are *cacheEntry
	byKey  map[cacheKey]*list.Element
	evicts int64
}

type cacheEntry struct {
	key cacheKey
	res *Response
	// warm marks an entry loaded from the journal at startup and not yet
	// checked against its graph; Admission.hit proves it on first use.
	warm bool
}

func newResultCache(capacity int) *resultCache {
	if capacity < 0 {
		capacity = 0
	}
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[cacheKey]*list.Element),
	}
}

// get returns the cached response for key, refreshing its recency, and
// whether it is a warm entry not yet proved.
func (c *resultCache) get(key cacheKey) (res *Response, warm, ok bool) {
	if c.cap == 0 {
		return nil, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.res, e.warm, true
}

// put inserts or refreshes key, evicting the least recently used entry
// beyond capacity; warm marks an entry loaded from the journal.
func (c *resultCache) put(key cacheKey, res *Response, warm bool) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		e.res, e.warm = res, warm
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, res: res, warm: warm})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.byKey, el.Value.(*cacheEntry).key)
		c.evicts++
	}
}

// settle records the proof of the warm entry under key, if it still holds
// res: a proper coloring stays as an ordinary entry, an improper one is
// removed. It reports whether it removed the entry.
func (c *resultCache) settle(key cacheKey, res *Response, proper bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok || el.Value.(*cacheEntry).res != res {
		return false
	}
	if proper {
		el.Value.(*cacheEntry).warm = false
		return false
	}
	c.order.Remove(el)
	delete(c.byKey, key)
	return true
}

// len returns the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// evictions returns the lifetime eviction count.
func (c *resultCache) evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicts
}

// export snapshots every entry, least recently used first, so replaying
// the exported list through put reproduces the recency order. Used by
// journal snapshot compaction.
func (c *resultCache) export() []cacheExport {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheExport, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		out = append(out, cacheExport{key: e.key, res: e.res})
	}
	return out
}

// cacheExport is one exported result-cache entry.
type cacheExport struct {
	key cacheKey
	res *Response
}

// idemEntries is the capacity of the Idempotency-Key LRU.
const idemEntries = 4096

// idemCache is an LRU of idemEntries entries from client Idempotency-Key
// to the completed response that key produced. It is consulted before the
// result cache — even for NoCache requests, since an idempotent retry
// explicitly asks for the stored answer — and is warm-started from journal
// completion records, which is what makes retries safe across restarts.
type idemCache struct {
	mu    sync.Mutex
	order *list.List // front = most recent; values are *idemEntry
	byKey map[string]*list.Element
}

type idemEntry struct {
	key     string
	res     *Response
	noCache bool   // the producing request bypassed the result cache
	pk      uint64 // the producing request's policy key (journal snapshots)
	// warm marks an entry loaded from the journal at startup and not yet
	// checked against its graph; Admission.replay proves it on first use.
	warm bool
}

func newIdemCache() *idemCache {
	return &idemCache{order: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the response stored under key, refreshing its recency, and
// whether it is a warm entry not yet proved.
func (c *idemCache) get(key string) (res *Response, warm, ok bool) {
	if key == "" {
		return nil, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*idemEntry)
	return e.res, e.warm, true
}

// put inserts or refreshes key; warm marks an entry loaded from the
// journal.
func (c *idemCache) put(key string, res *Response, noCache bool, pk uint64, warm bool) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*idemEntry)
		e.res, e.noCache, e.pk, e.warm = res, noCache, pk, warm
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&idemEntry{key: key, res: res, noCache: noCache, pk: pk, warm: warm})
	for c.order.Len() > idemEntries {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.byKey, el.Value.(*idemEntry).key)
	}
}

// settle records the proof of the warm entry under key, if it still holds
// res, as resultCache.settle does. It reports whether it removed the
// entry.
func (c *idemCache) settle(key string, res *Response, proper bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok || el.Value.(*idemEntry).res != res {
		return false
	}
	if proper {
		el.Value.(*idemEntry).warm = false
		return false
	}
	c.order.Remove(el)
	delete(c.byKey, key)
	return true
}

func (c *idemCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// export snapshots every entry, least recently used first.
func (c *idemCache) export() []idemEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]idemEntry, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*idemEntry))
	}
	return out
}

// flight is one admitted execution that any number of duplicate requests
// wait on: the leading request, its cache key, and whether its accept was
// journaled (so its completion must be too). done is closed exactly once,
// after res/err are set; the once guard makes completion idempotent, so
// the several paths that can end a job (worker, queue expiry, drain
// hand-off, hedged attempts) never race a double close.
type flight struct {
	req       *Request
	key       cacheKey
	journaled bool

	once sync.Once
	done chan struct{}
	res  *Response
	err  error
}

// complete publishes the outcome and releases every waiter. Only the
// first call takes effect.
func (f *flight) complete(res *Response, err error) {
	f.once.Do(func() {
		f.res = res
		f.err = err
		close(f.done)
	})
}

// cloneHit returns a defensive copy of a cached response: Colors is
// copied (or unpacked from a stored response's bytes), so a caller
// mutating the slice it was handed cannot corrupt the cached entry (and
// with it every later hit). The shallow copy alone used to alias the
// cache's backing array — the classic "poison one hit, serve bad
// colorings forever" bug.
func cloneHit(res *Response) *Response {
	hit := *res
	switch {
	case hit.colors8 != nil:
		hit.Colors = make([]int32, len(hit.colors8))
		for i, c := range hit.colors8 {
			hit.Colors[i] = int32(c)
		}
		hit.colors8 = nil
	case hit.Colors != nil:
		hit.Colors = append([]int32(nil), hit.Colors...)
	}
	return &hit
}

// packResponse returns the form of a completed response that the result
// cache and the idempotency LRU keep, one copy shared by both: its colors
// one byte per vertex when every color is in [0, 255] (the 'b' rule of
// journal.EncodeColors), which quarters what each remembered answer holds
// on the heap. Wider palettes keep the int32 slice. cloneHit unpacks.
func packResponse(res *Response) *Response {
	if len(res.Colors) == 0 {
		return res
	}
	for _, c := range res.Colors {
		if c < 0 || c > 0xff {
			return res
		}
	}
	packed := make([]byte, len(res.Colors))
	for i, c := range res.Colors {
		packed[i] = byte(c)
	}
	st := *res
	st.Colors, st.colors8 = nil, packed
	return &st
}
