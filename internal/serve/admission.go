package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
	"gcolor/internal/metrics"
)

// Admission is the front door an executor sits behind: the Idempotency-Key
// LRU, the packed result cache and its key fold, the request memo that
// answers a repeated upload without decoding it (memo.go), singleflight
// coalescing, the drain gate, write-ahead journaling of accepts and
// completions, the journal's snapshot compaction source, and crash
// recovery (recovery.go).
// A Server runs one in front of its queue and device pool; a cluster
// Coordinator runs one in front of its workers. The only step an executor
// supplies is how an admitted miss runs. All methods are safe for
// concurrent use.
type Admission struct {
	reg *metrics.Registry
	// requests is the executor's own request counter, which a memo hit
	// counts as the executor counts each request it serves (a Server's
	// requests_total); nil for an executor that counts none.
	requests *metrics.Counter
	cache    *resultCache
	idem     *idemCache
	memo     *requestMemo // nil when the cache is off (memo.go)
	specs    *specCache
	jrnl     *journal.Journal
	base     context.Context // bounds replayed jobs
	parallel int             // concurrent recovery re-submissions

	// snapshotExtra, when set, appends the executor's own state to every
	// compaction snapshot, after the admission state.
	snapshotExtra func(w *journal.SnapshotWriter, nowMS int64) error

	mu       sync.Mutex
	inflight map[cacheKey]*flight

	// pendAccepts mirrors the journaled accepts that have no completion
	// yet; it is the pending half of the snapshot compaction source.
	pendMu      sync.Mutex
	pendAccepts map[string]journal.AcceptRecord

	draining atomic.Bool

	// Recovery bookkeeping (see recovery.go).
	recEnabled bool
	recReplay  journal.ReplayStats
	warmCache  int64
	warmIdem   int64
	recPending int64
	recDone    chan struct{}
}

// NewAdmission builds a standalone front door from cfg's CacheEntries,
// ReplayParallelism and Journal (registered as its compaction source); the
// other fields are ignored. Recovery runs only when the executor calls
// Recover.
func NewAdmission(cfg Config) *Admission {
	return newAdmission(cfg.withDefaults(), metrics.NewRegistry(), context.Background(), nil)
}

func newAdmission(cfg Config, reg *metrics.Registry, base context.Context, extra func(*journal.SnapshotWriter, int64) error) *Admission {
	a := &Admission{
		reg:           reg,
		cache:         newResultCache(cfg.CacheEntries),
		idem:          newIdemCache(),
		specs:         newSpecCache(64),
		jrnl:          cfg.Journal,
		base:          base,
		parallel:      cfg.ReplayParallelism,
		snapshotExtra: extra,
		inflight:      make(map[cacheKey]*flight),
		pendAccepts:   make(map[string]journal.AcceptRecord),
		recDone:       make(chan struct{}),
	}
	// Pre-register every counter the front door keeps, so that /metricsz
	// reports zeros rather than omitting counters that have not fired yet.
	for _, name := range []string{
		"cache_hits", "cache_misses", "coalesced_total", "idem_hits_total", "memo_hits",
		"warm_cache_rejected_total", "warm_idem_rejected_total",
		"wire_binary_requests_total", "wire_json_fallback_total",
		"journal_append_errors_total",
		"replay_enqueued_total", "replay_completed_total",
		"replay_expired_total", "replay_failed_total",
	} {
		reg.Counter(name)
	}
	if cfg.CacheEntries > 0 {
		a.memo = newRequestMemo(cfg.CacheEntries)
	}
	if a.jrnl != nil {
		a.jrnl.SetSource(a.writeSnapshot)
	}
	return a
}

// Request converts a wire request to a Request, generator specs memoized.
func (a *Admission) Request(cr *ColorRequest) (*Request, error) {
	req, _, err := buildRequest(cr, a.specs)
	return req, err
}

// Serve answers req at the front door: an idempotent replay, a cache hit,
// or — unless draining — an admitted miss that exec runs on the caller's
// goroutine, coalesced with identical misses already in flight. req must
// carry its graph's Fingerprint (or, for a delta, its BaseFingerprint);
// shards is the shard count its answer is keyed under: the count exec will
// run it as, or a fixed stand-in when exec picks the count at run time. A
// delta's key is known only once it has run, so it skips the cache lookup
// and coalescing, and its result is stored under the successor fingerprint
// exec returns.
func (a *Admission) Serve(ctx context.Context, req *Request, shards int, exec func() (*Response, error)) (*Response, error) {
	if res, ok, _ := a.replay(req, req.Graph); ok {
		return res, nil
	}
	run := func(fl *flight) error {
		res, err := exec()
		a.finish(fl, res, err)
		return nil
	}
	if req.BaseFingerprint != 0 {
		return a.admit(ctx, req, keyOf(req, req.BaseFingerprint, shards), false, run)
	}
	return a.serve(ctx, req, keyOf(req, req.Fingerprint, shards), run)
}

// StartDrain closes the gate on fresh work: replays and cache hits are
// still answered.
func (a *Admission) StartDrain() { a.draining.Store(true) }

// Draining reports whether the gate is closed.
func (a *Admission) Draining() bool { return a.draining.Load() }

// CacheStats reports the result cache's hits, misses, evictions and
// entries, and the idempotency map's entries.
func (a *Admission) CacheStats() (hits, misses, evictions int64, entries, idemEntries int) {
	return a.reg.Counter("cache_hits").Value(), a.reg.Counter("cache_misses").Value(),
		a.cache.evictions(), a.cache.len(), a.idem.len()
}

// Metrics returns the front door's registry (shared, live): a Server's
// own, or a standalone front door's.
func (a *Admission) Metrics() *metrics.Registry { return a.reg }

// replay answers an Idempotency-Key retry with the answer its key
// produced. It comes before everything — even NoCache — because such a
// retry explicitly asks for that answer, wherever it now lives. g is the
// graph that answer colors: the upload's, or a delta's successor. A
// journal-warmed entry was never checked against a graph, so its first
// replay proves it against g first: a proper entry is then replayed as
// any other, an improper one leaves the map, is counted, and req runs as
// a miss. With no graph in hand (a memo recall, a delta before its
// successor is built) an unproved entry is not answered, and held reports
// it, so that the caller takes the path that builds the graph.
func (a *Admission) replay(req *Request, g *graph.Graph) (res *Response, ok, held bool) {
	stored, warm, ok := a.idem.get(req.IdemKey)
	if !ok {
		return nil, false, false
	}
	if warm && g == nil {
		return nil, false, true
	}
	hit := answered(stored, req, warm)
	if warm {
		proper := color.Verify(g, hit.Colors) == nil
		if a.idem.settle(req.IdemKey, stored, proper) {
			a.reg.Counter("warm_idem_rejected_total").Inc()
		}
		if !proper {
			return nil, false, false
		}
	}
	a.reg.Counter("idem_hits_total").Inc()
	hit.IdempotentReplay = true
	return hit, true, false
}

// hit answers req from the result cache unless it bypasses the cache. A
// journal-warmed entry was never checked against a graph, so its first
// hit proves it against req.Graph first: an improper coloring leaves the
// cache, is counted, and req runs as a miss. A request with no graph (a
// memo recall) is never answered from an entry not yet proved. Every
// other entry was proved when its coloring was made in this process.
func (a *Admission) hit(req *Request, key cacheKey) (*Response, bool) {
	if req.NoCache {
		return nil, false
	}
	res, warm, ok := a.cache.get(key)
	if !ok || warm && req.Graph == nil {
		return nil, false
	}
	hit := answered(res, req, warm)
	if warm {
		proper := color.Verify(req.Graph, hit.Colors) == nil
		if a.cache.settle(key, res, proper) {
			a.reg.Counter("warm_cache_rejected_total").Inc()
		}
		if !proper {
			return nil, false
		}
	}
	a.reg.Counter("cache_hits").Inc()
	return hit, true
}

// answered is a stored response as one caller's private copy, marked as
// answered from memory. It carries no colors when req reads none, unless
// prove is set: a journal-warmed entry's colors are checked against the
// graph on its first hit.
func answered(res *Response, req *Request, prove bool) *Response {
	hit := cloneHit(res, !req.noColors || prove)
	hit.Cached = true
	hit.Device = -1
	hit.Wait, hit.Exec = 0, 0
	hit.RequestID = req.RequestID
	return hit
}

// serve is a cache hit or an admitted miss, coalesced unless NoCache.
// It is where a decoded upload's key becomes known, so it records the
// upload's memo digest.
func (a *Admission) serve(ctx context.Context, req *Request, key cacheKey, run func(*flight) error) (*Response, error) {
	a.remember(req, key)
	if res, ok := a.hit(req, key); ok {
		return res, nil
	}
	return a.admit(ctx, req, key, !req.NoCache, run)
}

// admit runs a miss. The drain gate sits here, after the replay and cache
// lookups: those never touch an executor, and refusing them during drain
// turned every rolling restart into a spurious client-visible error for
// retries that could be answered from memory. A coalescing miss attaches
// to an in-flight execution of the same key when there is one; otherwise a
// new flight is journaled — before run starts it, the write-ahead
// invariant — and handed to run, which returns an error only when it could
// not start the work (the flight is then settled with that error, so
// replay does not resurrect work the caller was told to retry). Started
// work ends in finish.
func (a *Admission) admit(ctx context.Context, req *Request, key cacheKey, coalesce bool, run func(*flight) error) (*Response, error) {
	if a.draining.Load() {
		return nil, ErrDraining
	}
	fl := &flight{req: req, key: key, done: make(chan struct{})}
	if coalesce {
		a.reg.Counter("cache_misses").Inc()
		a.mu.Lock()
		lead, ok := a.inflight[key]
		if !ok {
			a.inflight[key] = fl
		}
		a.mu.Unlock()
		if ok {
			a.reg.Counter("coalesced_total").Inc()
			return a.wait(ctx, req, lead, true)
		}
	}
	if a.jrnl != nil && req.RequestID != "" && len(req.replayWire()) > 0 {
		fl.journaled = true
		a.journalAccept(ctx, req, key)
	}
	if err := run(fl); err != nil {
		a.finish(fl, nil, err)
		return nil, err
	}
	return a.wait(ctx, req, fl, false)
}

// wait blocks on a flight, honouring the waiter's own context: a waiter
// that gives up leaves the execution running for the others.
func (a *Admission) wait(ctx context.Context, req *Request, fl *flight, coalesced bool) (*Response, error) {
	select {
	case <-fl.done:
		if fl.err != nil {
			return nil, fl.err
		}
		// Each waiter that reads colors gets its own copy: the flight's
		// result is also the cache entry, and waiters are free to mutate
		// what they receive.
		res := cloneHit(fl.res, !req.noColors)
		res.Coalesced = res.Coalesced || coalesced
		res.RequestID = req.RequestID
		return res, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: abandoned wait: %w", ctx.Err())
	}
}

// finish is the single completion choke point of an admitted miss: its
// completion record (every disposition is journaled — replay must know the
// job is settled even when the caller saw an error), then publish.
func (a *Admission) finish(fl *flight, res *Response, err error) {
	if fl.journaled {
		a.appendComplete(a.completion(fl, res, err))
	}
	a.publish(fl, res, err)
}

// publish stores a success, packed, in the result cache (before the flight
// leaves the coalescing map, so a request arriving between the two sees
// one or the other) and under its Idempotency-Key, both keyed by the
// fingerprint the response colors; then it releases every waiter.
func (a *Admission) publish(fl *flight, res *Response, err error) {
	if err == nil && res != nil {
		key := cacheKey{fp: res.Fingerprint, policy: fl.key.policy}
		stored := packResponse(res)
		if !fl.req.NoCache {
			a.cache.put(key, stored, false)
		}
		a.idem.put(fl.req.IdemKey, stored, fl.req.NoCache, key.policy, false)
	}
	a.mu.Lock()
	if a.inflight[fl.key] == fl {
		delete(a.inflight, fl.key)
	}
	a.mu.Unlock()
	fl.complete(res, err)
}

// journalAccept journals an admitted replayable request, and mirrors the
// accept into pendAccepts for the compaction source. A journal write
// failure is counted, not fatal: serving goes on, it just cannot promise
// replay for this request.
func (a *Admission) journalAccept(ctx context.Context, req *Request, key cacheKey) {
	rec := journal.AcceptRecord{
		ID:             req.RequestID,
		IdemKey:        req.IdemKey,
		Fingerprint:    key.fp,
		PolicyKey:      key.policy,
		Priority:       int(req.Priority),
		AcceptedUnixMS: time.Now().UnixMilli(),
		Resident:       req.Resident,
		Wire:           req.Wire,
	}
	if dl, ok := ctx.Deadline(); ok {
		rec.DeadlineUnixMS = dl.UnixMilli()
	}
	a.pendMu.Lock()
	a.pendAccepts[rec.ID] = rec
	a.pendMu.Unlock()
	if err := a.jrnl.AppendAccept(rec); err != nil {
		a.reg.Counter("journal_append_errors_total").Inc()
	}
}

// completion clears a journaled flight's pendAccepts mirror and builds its
// completion record.
func (a *Admission) completion(fl *flight, res *Response, err error) journal.CompleteRecord {
	a.pendMu.Lock()
	delete(a.pendAccepts, fl.req.RequestID)
	a.pendMu.Unlock()
	return completionRecord(fl.req.RequestID, fl.req.IdemKey, fl.key, res, err, fl.req.NoCache)
}

func (a *Admission) appendComplete(rec journal.CompleteRecord) {
	if a.jrnl == nil {
		return
	}
	if err := a.jrnl.AppendComplete(rec); err != nil {
		a.reg.Counter("journal_append_errors_total").Inc()
	}
}

// completionRecord builds the journal completion for one finished job; a
// success is recorded under the fingerprint its response colors.
func completionRecord(id, idem string, key cacheKey, res *Response, err error, noCache bool) journal.CompleteRecord {
	rec := journal.CompleteRecord{
		ID:              id,
		IdemKey:         idem,
		Fingerprint:     key.fp,
		PolicyKey:       key.policy,
		Disposition:     dispositionFor(err),
		NoCache:         noCache,
		CompletedUnixMS: time.Now().UnixMilli(),
	}
	if err != nil {
		_, rec.ErrKind = classifyErr(err)
		return rec
	}
	rec.Fingerprint = res.Fingerprint
	rec.NumColors = res.NumColors
	rec.ColorsB64 = journal.EncodeColors(res.Colors)
	rec.Cycles = res.Cycles
	rec.Iterations = res.Iterations
	rec.Recovery = int(res.Recovery)
	rec.Shards = res.Shards
	return rec
}

// dispositionFor maps a completion error to its journal disposition.
func dispositionFor(err error) string {
	switch {
	case err == nil:
		return journal.DispOK
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShedding):
		return journal.DispRejected
	case errors.Is(err, ErrClosed):
		// Covers ErrDraining (which wraps it): the caller was handed the
		// job back with a typed error and owns the retry.
		return journal.DispHandedOff
	case errors.Is(err, ErrDeadlineInQueue), isDeadline(err):
		return journal.DispExpired
	default:
		return journal.DispFailed
	}
}
