package cluster

import (
	"container/list"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gcolor/internal/serve"
)

// Fleet-level delta routing. A delta request carries no graph — only a
// base fingerprint and edit lists — so the coordinator can neither parse
// nor scatter it. What it CAN do is route it to the one worker whose
// resident version store holds the base: the owner table remembers which
// worker served each version of a mutation chain, so successive deltas
// land on the same worker and hit its incremental path instead of
// round-robining into unknown_base rejections. Version identity is content
// identity (serve's delta engine fingerprints successors by content), so
// the successor fingerprint in a delta reply is the owner-table key for
// the next delta in the chain.

// ownerTable is the bounded LRU mapping resident version fingerprints to
// the worker that holds them. It is a routing hint, not a lease: a wrong
// entry costs one 404 round trip (the worker answers unknown_base, the
// entry is dropped), never a wrong answer.
type ownerTable struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *ownerEntry
	byFp  map[uint64]*list.Element
}

type ownerEntry struct {
	fp   uint64
	addr string
}

func newOwnerTable(capacity int) *ownerTable {
	if capacity <= 0 {
		capacity = 1024
	}
	return &ownerTable{cap: capacity, order: list.New(), byFp: make(map[uint64]*list.Element)}
}

func (t *ownerTable) get(fp uint64) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.byFp[fp]
	if !ok {
		return "", false
	}
	t.order.MoveToFront(el)
	return el.Value.(*ownerEntry).addr, true
}

func (t *ownerTable) put(fp uint64, addr string) {
	if addr == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.byFp[fp]; ok {
		el.Value.(*ownerEntry).addr = addr
		t.order.MoveToFront(el)
		return
	}
	t.byFp[fp] = t.order.PushFront(&ownerEntry{fp: fp, addr: addr})
	for t.order.Len() > t.cap {
		el := t.order.Back()
		t.order.Remove(el)
		delete(t.byFp, el.Value.(*ownerEntry).fp)
	}
}

func (t *ownerTable) drop(fp uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.byFp[fp]; ok {
		t.order.Remove(el)
		delete(t.byFp, fp)
	}
}

func (t *ownerTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

// lookup resolves a member by its canonical base URL (owner-table hints
// store addresses, not member IDs, so a worker that re-joins keeps its
// ownership).
func (r *registry) lookup(addr string) *member {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byAddr[addr]
}

// routeDelta forwards a delta whole, preferring the recorded owner of the
// base version and falling back to rendezvous rank on the base
// fingerprint. An unknown_base rejection drops the stale owner hint and is
// never failed over — no other worker holds the version either; the
// client must re-upload. On success both the base and successor
// fingerprints are (re)bound to the serving worker, keeping the whole
// mutation chain on one resident store. The reply carries the successor's
// fingerprint, under which the front door caches and journals it.
func (c *Coordinator) routeDelta(ctx context.Context, cr *serve.ColorRequest, req *serve.Request) (*serve.Response, error) {
	baseFp := req.BaseFingerprint
	out := *cr
	out.IncludeColors = true // the coordinator caches full colorings
	ctx, cancel := c.workerCtx(ctx)
	defer cancel()
	exclude := make(map[int]bool)
	var lastErr error
	for attempt := 0; attempt < routeAttempts; attempt++ {
		var m *member
		var probe bool
		if addr, ok := c.owners.get(baseFp); ok && attempt == 0 {
			if om := c.reg.lookup(addr); om != nil && !exclude[om.id] && om.aliveAt(time.Now(), c.reg.expire) {
				m = om
				c.deltaOwnerHits.Add(1)
			}
		}
		if m == nil {
			c.deltaOwnerMisses.Add(1)
			var err error
			m, probe, err = c.reg.pick(baseFp, exclude)
			if err != nil {
				if lastErr != nil {
					return nil, lastErr
				}
				return nil, err
			}
		}
		m.jobs.Add(1)
		start := time.Now()
		resp, err := callWorker(ctx, c.client, m.addr, &out, req.RequestID, req.IdemKey, c.epoch)
		exec := time.Since(start)
		if err == nil {
			m.seen(time.Now())
			c.reg.observe(m, probe, true, 1, exec)
			resp.Worker = m.addr
			resp.Redispatched = attempt
			c.owners.put(baseFp, m.addr)
			c.owners.put(resp.Fingerprint, m.addr)
			return resp, nil
		}
		lastErr = err
		we, _ := err.(*WorkerError)
		if we != nil && we.Status > 0 {
			m.seen(time.Now()) // it answered; sick is not dead
		}
		if we != nil && we.Status == http.StatusNotFound && we.Kind == "unknown_base" {
			// The hinted worker no longer holds the base (restart, LRU
			// eviction). No replica will do better; surface the typed 404
			// so the client re-uploads, and forget the stale hint.
			c.owners.drop(baseFp)
			c.reg.observe(m, probe, true, 1, exec) // the worker is fine
			return nil, err
		}
		if c.noteStaleEpoch(we) {
			return nil, err
		}
		good, reward := judgeWorkerError(we)
		c.reg.observe(m, probe, good, reward, exec)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if we == nil || !we.Retryable() {
			return nil, err
		}
		exclude[m.id] = true
		c.owners.drop(baseFp) // the owner is down; stop preferring it
		c.routeFailovers.Add(1)
	}
	return nil, fmt.Errorf("cluster: delta route exhausted %d attempts: %w", routeAttempts, lastErr)
}
