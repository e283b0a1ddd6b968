package cluster

import (
	"context"
	"net/http"
	"time"

	"gcolor/internal/lru"
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

// ownerEntries is the capacity of the version-owner table.
const ownerEntries = 1024

// ownerTable is the bounded LRU mapping resident version fingerprints to
// the worker that holds them. It is a routing hint, not a lease: a wrong
// entry costs one 404 round trip (the worker answers unknown_base, the
// entry is dropped), never a wrong answer. An empty address is never
// stored.
type ownerTable struct{ *lru.Cache[uint64, string] }

func (t ownerTable) Put(fp uint64, addr string) {
	if addr != "" {
		t.Cache.Put(fp, addr)
	}
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
// base version on the first try and falling back to rendezvous rank on
// the base fingerprint. A failover drops the owner hint, as does an
// unknown_base rejection, which is never failed over — no other worker
// holds the version either; the client must re-upload. On success both
// the base and successor fingerprints are (re)bound to the serving
// worker, keeping the whole mutation chain on one resident store. The
// reply carries the successor's fingerprint, under which the front door
// caches and journals it.
func (c *Coordinator) routeDelta(ctx context.Context, cr *serve.ColorRequest, req *serve.Request) (*serve.Response, error) {
	baseFp := req.BaseFingerprint
	out := *cr
	out.IncludeColors = true // the coordinator caches full colorings
	ctx, cancel := c.workerCtx(ctx)
	defer cancel()
	resp, m, tries, err := c.callWorkers(ctx, &workerCall{
		body: &out, rid: req.RequestID, idemKey: req.IdemKey,
		pick: func(first bool, exclude map[int]bool) (*member, bool, error) {
			if !first {
				c.owners.Delete(baseFp) // the last try failed over; stop preferring its worker
			} else if addr, ok := c.owners.Get(baseFp); ok {
				if om := c.reg.lookup(addr); om != nil && om.aliveAt(time.Now(), c.reg.expire) {
					c.deltaOwnerHits.Add(1)
					return om, false, nil
				}
			}
			c.deltaOwnerMisses.Add(1)
			return c.reg.pick(baseFp, exclude)
		},
		tries: routeAttempts, failovers: &c.routeFailovers, name: "delta route",
	})
	if we, ok := err.(*WorkerError); ok && we.Status == http.StatusNotFound && we.Kind == "unknown_base" {
		// The hinted worker no longer holds the base (restart, LRU
		// eviction). Forget the stale hint.
		c.owners.Delete(baseFp)
	}
	if err != nil {
		return nil, err
	}
	resp.Worker, resp.Redispatched = m.addr, tries-1
	c.owners.Put(baseFp, m.addr)
	c.owners.Put(resp.Fingerprint, m.addr)
	return resp, nil
}
