package serve

import (
	"sync"

	"gcolor/internal/lru"
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

// cacheEntry is one answer the result cache or the idempotency map keeps,
// in the packed form packResponse makes. Stored responses are treated as
// immutable: lookups return the same *Response to every hit, and every hit
// path hands its caller a private copy via cloneHit.
type cacheEntry struct {
	res *Response
	// warm marks an entry loaded from the journal at startup and not yet
	// checked against its graph; Admission.hit and Admission.replay prove
	// it on first use.
	warm bool
}

// settle is the lru.Cache.Update step that records the proof of a warm
// entry, if it still holds res: a proper coloring stays as an ordinary
// entry, an improper one is removed. It reports whether the entry stays.
func (e *cacheEntry) settle(res *Response, proper bool) (keep bool) {
	if e.res != res {
		return true
	}
	e.warm = false
	return proper
}

// idemEntries is the capacity of the Idempotency-Key LRU.
const idemEntries = 4096

// idemCache is an LRU of idemEntries entries from client Idempotency-Key
// to the completed response that key produced. It is consulted before the
// result cache — even for NoCache requests, since an idempotent retry
// explicitly asks for the stored answer — and is warm-started from journal
// completion records, which is what makes retries safe across restarts.
// The empty key, a request without one, is never stored.
type idemCache struct{ *lru.Cache[string, idemEntry] }

type idemEntry struct {
	cacheEntry
	noCache bool   // the producing request bypassed the result cache
	pk      uint64 // the producing request's policy key (journal snapshots)
}

func (c idemCache) Get(key string) (idemEntry, bool) {
	if key == "" {
		return idemEntry{}, false
	}
	return c.Cache.Get(key)
}

func (c idemCache) Put(key string, e idemEntry) {
	if key != "" {
		c.Cache.Put(key, e)
	}
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
// colorings forever" bug. Without colors the copy carries none, and the
// stored coloring is neither unpacked nor copied.
func cloneHit(res *Response, colors bool) *Response {
	hit := *res
	switch {
	case !colors:
		hit.Colors, hit.colors8 = nil, nil
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
