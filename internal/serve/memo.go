package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// The request memo lets a front door answer a repeat without decoding it.
// A POST /color reply depends only on the bytes the client sent — the
// Content-Type, the query and the body — and on what the front door has
// stored. So the memo maps the SHA-256 of those bytes to what decoding
// them produced last time: the request's cache key, the vertex and edge
// counts its reply echoes, and whether the reply carries colors. A repeat
// then costs one hash, one idempotency or cache lookup and the reply's
// encode; the full decode (JSON, edge-list parse, fingerprint) runs only on
// a memo miss, or when the stored answer has since been evicted.
//
// SHA-256 rather than a 64-bit hash because the answer must be for exactly
// the bytes the client sent: a collision would hand one graph another
// graph's coloring, and at 64 bits a collision among billions of requests
// is plausible, not infeasible.
//
// Only requests whose answer is their whole effect are recorded: not
// resident uploads or deltas (they change a worker's version store), not
// NoCache requests (they ask to run), and not bodies that fail to decode.

// Upload is one POST /color request as it arrived, before any decode:
// the parts its reply depends on. Admission.Recall answers a repeat from
// it alone; Admission.Decode turns it into a Request.
type Upload struct {
	ContentType string
	RawQuery    string
	Body        []byte

	// memo is the upload's digest, set by Recall when the memo is on;
	// Decode hands it to the Request.
	memo memoTag
}

// memoTag is a request's memo digest and the part of its reply the cache
// entry cannot supply.
type memoTag struct {
	sum           [sha256.Size]byte
	set           bool
	includeColors bool
}

// digest hashes an upload's Content-Type, raw query and body, each
// length-prefixed so that no two different uploads hash the same bytes.
func (u *Upload) digest() [sha256.Size]byte {
	pre := make([]byte, 0, 24+len(u.ContentType)+len(u.RawQuery))
	pre = binary.LittleEndian.AppendUint64(pre, uint64(len(u.ContentType)))
	pre = append(pre, u.ContentType...)
	pre = binary.LittleEndian.AppendUint64(pre, uint64(len(u.RawQuery)))
	pre = append(pre, u.RawQuery...)
	pre = binary.LittleEndian.AppendUint64(pre, uint64(len(u.Body)))
	h := sha256.New()
	h.Write(pre)
	h.Write(u.Body)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// memoEntry is what decoding one upload produced: its cache key, and the
// vertex and edge counts and include_colors its reply echoes.
type memoEntry struct {
	sum             [sha256.Size]byte
	key             cacheKey
	vertices, edges int
	includeColors   bool
}

// requestMemo is a fixed-capacity LRU of memo entries by digest.
type requestMemo struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *memoEntry
	bySum map[[sha256.Size]byte]*list.Element
}

func newRequestMemo(capacity int) *requestMemo {
	return &requestMemo{cap: capacity, order: list.New(), bySum: make(map[[sha256.Size]byte]*list.Element)}
}

func (m *requestMemo) get(sum [sha256.Size]byte) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.bySum[sum]
	if !ok {
		return memoEntry{}, false
	}
	m.order.MoveToFront(el)
	return *el.Value.(*memoEntry), true
}

func (m *requestMemo) put(e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.bySum[e.sum]; ok {
		*el.Value.(*memoEntry) = e
		m.order.MoveToFront(el)
		return
	}
	m.bySum[e.sum] = m.order.PushFront(&e)
	for m.order.Len() > m.cap {
		el := m.order.Back()
		m.order.Remove(el)
		delete(m.bySum, el.Value.(*memoEntry).sum)
	}
}

func (m *requestMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Recall answers a repeat of an upload this front door has decoded before,
// without decoding it again: the upload's digest names the request's
// cache key, and the answer — the reply to request rid — comes from the
// idempotency entry under idemKey or from the result cache, in that order,
// the order Serve uses. Like Serve's, these answers are given while
// draining and are counted as the full path counts them: as idempotent or
// cache hits, as binary uploads, and in the executor's request count. It
// reports false on a memo miss, when neither holds the answer any more,
// or when the answer is a journal-warmed entry not yet proved (Recall has
// no graph to prove it with); the caller then decodes in full, and Decode
// carries the digest on so that Serve records it.
func (a *Admission) Recall(u *Upload, rid, idemKey string) (*ColorResponse, bool) {
	if a.memo == nil {
		return nil, false
	}
	u.memo = memoTag{sum: u.digest(), set: true}
	m, ok := a.memo.get(u.memo.sum)
	if !ok {
		return nil, false
	}
	// A recall never answers an entry it would have to prove and never
	// pins a version, so without include_colors nothing reads the colors.
	req := &Request{RequestID: rid, IdemKey: idemKey, noColors: !m.includeColors}
	res, ok, held := a.replay(req, nil)
	if held {
		return nil, false
	}
	if !ok {
		if res, ok = a.hit(req, m.key); !ok {
			return nil, false
		}
	}
	a.reg.Counter("memo_hits").Inc()
	if isBinaryCSR(u.ContentType) {
		a.reg.Counter("wire_binary_requests_total").Inc()
	}
	if a.requests != nil {
		a.requests.Inc()
	}
	out := WireResponse(res, req)
	out.Vertices, out.Edges = m.vertices, m.edges
	return out, true
}

// remember records req's memo digest under key, if req came from an
// upload Recall hashed.
func (a *Admission) remember(req *Request, key cacheKey) {
	if !req.memo.set || a.memo == nil {
		return
	}
	a.memo.put(memoEntry{
		sum:           req.memo.sum,
		key:           key,
		vertices:      req.Graph.NumVertices(),
		edges:         req.Graph.NumEdges(),
		includeColors: req.memo.includeColors,
	})
}

// MemoStats reports the request memo's hits and entries.
func (a *Admission) MemoStats() (hits int64, entries int) {
	hits = a.reg.Counter("memo_hits").Value()
	if a.memo != nil {
		entries = a.memo.len()
	}
	return hits, entries
}
