package serve

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
)

// ColorRequest is the JSON body of POST /color. Exactly one of Graph
// (inline edge-list text), Gen (generator spec, see ParseGraphSpec), or
// GraphCSRB64 (base64 binary CSR frame, see graph.EncodeWireCSR) must be
// set.
type ColorRequest struct {
	Graph string `json:"graph,omitempty"` // edge-list text, one "u v" per line
	Gen   string `json:"gen,omitempty"`   // generator spec, e.g. "rmat:10:8:1"
	// GraphCSRB64 is a base64-encoded binary CSR wire frame. It is how a
	// binary upload round-trips through JSON contexts: the journal replay
	// envelope for ContentTypeBinaryCSR requests, and cluster shard
	// dispatch (no edge-list re-parse on the worker).
	GraphCSRB64 string `json:"graph_csr_b64,omitempty"`

	Alg       string `json:"alg,omitempty"`       // algorithm name (default baseline)
	Seed      uint32 `json:"seed,omitempty"`      // vertex priority seed
	Threshold int    `json:"threshold,omitempty"` // hybrid degree threshold
	Fused     bool   `json:"fused,omitempty"`     // fused assign+flag kernels
	Policy    string `json:"policy,omitempty"`    // static | roundrobin | stealing
	Priority  string `json:"priority,omitempty"`  // low | normal | high

	CycleBudget   int64 `json:"cycle_budget,omitempty"`
	MaxRetries    int   `json:"max_retries,omitempty"`
	NoCPUFallback bool  `json:"no_cpu_fallback,omitempty"`
	NoCache       bool  `json:"no_cache,omitempty"`

	// Shards selects sharded scatter-gather execution: 0 auto, 1 pinned
	// single-device, >= 2 pinned K shards (see serve.Request.Shards).
	Shards int `json:"shards,omitempty"`

	TimeoutMS     int64 `json:"timeout_ms,omitempty"`     // per-request deadline
	IncludeColors bool  `json:"include_colors,omitempty"` // echo the full coloring

	// Resident pins the result (graph + coloring) in the versioned graph
	// store, making it usable as the base of later delta requests.
	Resident bool `json:"resident,omitempty"`

	// Delta mode: BaseFingerprint (the fingerprint string a previous
	// response returned) selects the resident base version; the request
	// must then carry none of graph/gen/graph_csr_b64 — the mutation lists
	// below ARE the graph. AddVertices appends that many isolated vertices
	// (ids n..n+k-1); AddEdges/RemoveEdges are undirected endpoint pairs,
	// applied removals-first (an edge in both lists survives). The reply is
	// a coloring of the successor graph under its own fingerprint.
	BaseFingerprint string     `json:"base_fingerprint,omitempty"`
	AddVertices     int        `json:"add_vertices,omitempty"`
	AddEdges        [][2]int32 `json:"add_edges,omitempty"`
	RemoveEdges     [][2]int32 `json:"remove_edges,omitempty"`
}

// ColorResponse is the JSON body of a successful POST /color. Replies are
// written by WriteColorResponse, not by encoding/json: a field added here
// must be added there too (TestWriteColorResponseEveryField fails until it
// is).
type ColorResponse struct {
	Fingerprint string  `json:"fingerprint"`
	NumColors   int     `json:"num_colors"`
	Colors      []int32 `json:"colors,omitempty"`
	Vertices    int     `json:"vertices"`
	Edges       int     `json:"edges"`

	Cycles     int64  `json:"cycles"`
	Iterations int    `json:"iterations"`
	Recovery   string `json:"recovery"`
	Attempts   int    `json:"attempts"`
	Repaired   int    `json:"repaired,omitempty"`

	Cached    bool  `json:"cached"`
	Coalesced bool  `json:"coalesced"`
	Hedged    bool  `json:"hedged,omitempty"`
	Batched   bool  `json:"batched,omitempty"`    // always zero (off the wire): every job runs as its own launch
	BatchSize int   `json:"batch_size,omitempty"` // always zero, like Batched
	Device    int   `json:"device"`
	WaitUS    int64 `json:"wait_us"`
	ExecUS    int64 `json:"exec_us"`

	Shards            int `json:"shards,omitempty"`
	ShardConflicts    int `json:"shard_conflicts,omitempty"`
	ShardRepairRounds int `json:"shard_repair_rounds,omitempty"`
	ShardRecolored    int `json:"shard_recolored,omitempty"`

	// Delta evidence: Delta reports the request was served through the
	// incremental engine, FrontierSize how many vertices the mutation
	// touched, DeltaFallback that the successor was recolored from scratch
	// (frontier over budget), and BaseFingerprint echoes the base version.
	Delta           bool   `json:"delta,omitempty"`
	FrontierSize    int    `json:"frontier_size,omitempty"`
	DeltaFallback   bool   `json:"delta_fallback,omitempty"`
	BaseFingerprint string `json:"base_fingerprint,omitempty"`

	// RequestID is the per-request correlation ID (inbound X-Request-ID,
	// or server-generated), also echoed in the X-Request-ID response
	// header. IdempotentReplay reports that an Idempotency-Key matched a
	// journaled completion and the stored result was returned.
	RequestID        string `json:"request_id"`
	IdempotentReplay bool   `json:"idempotent_replay,omitempty"`

	// Cluster evidence, set only by a coordinator (internal/cluster):
	// Worker is the node that executed a routed job ("" for locally
	// answered and scattered jobs), Scattered reports the job ran as a
	// cross-worker scatter-gather, and Redispatched counts shard or route
	// attempts that were re-dispatched to another worker after a failure.
	Worker       string `json:"worker,omitempty"`
	Scattered    bool   `json:"scattered,omitempty"`
	Redispatched int    `json:"redispatched,omitempty"`
}

// errorResponse is the JSON body of any non-2xx reply, a worker's or a
// coordinator's (WriteError).
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"` // bad_request | bad_delta | unknown_base | too_large | queue_full | shedding | deadline | draining | closed | failed, and a coordinator's own kinds
	// RequestID correlates the failure with server logs, journal records,
	// and crash-drill traces.
	RequestID string `json:"request_id,omitempty"`
}

// requestID returns the request's correlation ID: an inbound
// X-Request-ID (sanitized — header-safe characters only, bounded length)
// or a freshly generated one.
func requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get("X-Request-ID")); id != "" {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-fallback"
	}
	return "req-" + hex.EncodeToString(b[:])
}

// RequestIDFor is the exported form of requestID for layers that front
// this package over their own HTTP surface (the cluster coordinator must
// mint and sanitize IDs by exactly the same rules so IDs survive the
// coordinator -> worker hop into the worker's journal).
func RequestIDFor(r *http.Request) string { return requestID(r) }

// SanitizeRequestID is the exported form of sanitizeRequestID.
func SanitizeRequestID(id string) string { return sanitizeRequestID(id) }

// sanitizeRequestID keeps a client-supplied ID only when it is safe to
// echo into headers and journal records: printable ASCII, no separators
// that could split a header, at most 128 bytes.
func sanitizeRequestID(id string) string {
	if len(id) > 128 {
		id = id[:128]
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == ',' || c == ';' {
			return ""
		}
	}
	return id
}

// specCache memoizes generator-spec graphs so a hot spec ("rmat:12:8:1"
// requested by every gcload worker) is generated once, not per request.
// Inline-uploaded graphs are not memoized — their parse cost is the upload
// cost.
type specCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List
	byKey map[string]*list.Element
}

type specEntry struct {
	key string
	g   *graph.Graph
}

func newSpecCache(capacity int) *specCache {
	return &specCache{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

func (c *specCache) get(spec string) (*graph.Graph, error) {
	c.mu.Lock()
	if el, ok := c.byKey[spec]; ok {
		c.order.MoveToFront(el)
		g := el.Value.(*specEntry).g
		c.mu.Unlock()
		return g, nil
	}
	c.mu.Unlock()
	// Generate outside the lock; duplicate generation on a race is
	// harmless (same deterministic graph) and rarer than lock contention.
	g, err := ParseGraphSpec(spec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.byKey[spec]; !ok {
		c.byKey[spec] = c.order.PushFront(&specEntry{key: spec, g: g})
		for c.order.Len() > c.cap {
			el := c.order.Back()
			c.order.Remove(el)
			delete(c.byKey, el.Value.(*specEntry).key)
		}
	}
	c.mu.Unlock()
	return g, nil
}

// DefaultMaxBodyBytes caps a POST /color body when HandlerConfig leaves
// MaxBodyBytes zero: large enough for any seed-dataset edge list, small
// enough that one rogue upload cannot OOM the daemon before graph-level
// caps run.
const DefaultMaxBodyBytes = 64 << 20

// HandlerConfig tunes the HTTP surface.
type HandlerConfig struct {
	// MaxBodyBytes caps the POST /color request body; an oversized upload
	// is refused with 413 and a typed "too_large" error body. 0 means
	// DefaultMaxBodyBytes; negative disables the cap.
	MaxBodyBytes int64

	// Epoch, when set, fences coordinator calls: a request whose
	// X-GC-Epoch header is below the guard's high-water mark is refused
	// with 409 and kind "stale_epoch" — the sender is a deposed primary
	// that must stop dispatching. Requests without the header pass (direct
	// clients are not fenced).
	Epoch *EpochGuard
}

// Handler wraps a Server with the gcolord HTTP API under the default
// handler configuration:
//
//	POST /color     submit a coloring job (ColorRequest -> ColorResponse)
//	GET  /healthz   liveness + pool size
//	GET  /metricsz  flat text metrics (counters, gauges, histograms,
//	                derived cache_hit_rate / device_utilization, per-device
//	                health and breaker state)
//	GET  /recoveryz journal recovery status (replay stats, warm-start
//	                counts, pending-job replay progress, journal counters)
//	GET  /drainz    drain status (draining flag, queue depth, per-device
//	                breaker states)
//	POST /drainz    request a graceful drain; the daemon observes
//	                Server.DrainRequested and shuts down as if SIGTERMed
func Handler(s *Server) http.Handler { return HandlerWith(s, HandlerConfig{}) }

// HandlerWith is Handler with an explicit configuration.
func HandlerWith(s *Server, hc HandlerConfig) http.Handler {
	if hc.MaxBodyBytes == 0 {
		hc.MaxBodyBytes = DefaultMaxBodyBytes
	}
	mux := http.NewServeMux()
	exec := func(ctx context.Context, _ *ColorRequest, req *Request) (*ColorResponse, error) {
		res, err := s.Submit(ctx, req)
		if err != nil {
			return nil, err
		}
		return WireResponse(res, req), nil
	}
	fail := func(w http.ResponseWriter, err error, rid string) {
		status, kind := classifyErr(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.RetryAfterHint(kind)))
		}
		WriteError(w, status, kind, err.Error(), rid)
	}
	mux.HandleFunc("POST /color", func(w http.ResponseWriter, r *http.Request) {
		rid := requestID(r)
		w.Header().Set("X-Request-ID", rid)
		if hc.Epoch != nil && !admitEpoch(hc.Epoch, w, r, rid) {
			return
		}
		s.front.ServeColor(w, r, rid, hc.MaxBodyBytes, exec, fail)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// queue_depth and exec_p50_us ride on the health probe so a
		// coordinator's heartbeat doubles as the backpressure signal: the
		// fleet's Retry-After is computed from what the workers report here.
		var epoch uint64
		if hc.Epoch != nil {
			epoch = hc.Epoch.Current()
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","devices":%d,"uptime_ms":%d,"queue_depth":%d,"exec_p50_us":%d,"epoch":%d}`+"\n",
			s.pool.Size(), s.Uptime().Milliseconds(),
			s.queue.depth(), s.reg.Histogram("exec_us").Quantile(0.50), epoch)
	})
	mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		var sb strings.Builder
		s.Metrics().WriteText(&sb)
		fmt.Fprintf(&sb, "cache_hit_rate %.4f\n", st.CacheHitRate)
		fmt.Fprintf(&sb, "device_utilization %.4f\n", st.Utilization)
		fmt.Fprintf(&sb, "uptime_ms %d\n", st.Uptime.Milliseconds())
		ar := s.pool.ArenaStats()
		fmt.Fprintf(&sb, "arena_allocs %d\n", ar.Allocs)
		fmt.Fprintf(&sb, "arena_reuses %d\n", ar.Reuses)
		fmt.Fprintf(&sb, "arena_releases %d\n", ar.Releases)
		fmt.Fprintf(&sb, "arena_pooled_bufs %d\n", ar.PooledBufs)
		fmt.Fprintf(&sb, "arena_pooled_bytes %d\n", ar.PooledBytes)
		// Self-healing: fleet counters, then one health/breaker pair per
		// device (breaker state encoded 0=closed 1=open 2=half-open so the
		// text stays machine-parsable).
		fmt.Fprintf(&sb, "quarantines_total %d\n", st.Quarantines)
		fmt.Fprintf(&sb, "readmitted_total %d\n", st.Readmitted)
		fmt.Fprintf(&sb, "probes_total %d\n", st.Probes)
		fmt.Fprintf(&sb, "probe_failures_total %d\n", st.ProbeFailures)
		fmt.Fprintf(&sb, "quarantined %d\n", st.Quarantined)
		fmt.Fprintf(&sb, "draining %d\n", boolToInt(st.Draining))
		// Result cache, idempotency map and request memo residency (the
		// hit/miss counters live in the registry lines above).
		fmt.Fprintf(&sb, "cache_entries %d\n", st.CacheEntries)
		fmt.Fprintf(&sb, "cache_evictions_total %d\n", st.CacheEvictions)
		fmt.Fprintf(&sb, "idem_entries %d\n", st.IdemEntries)
		fmt.Fprintf(&sb, "memo_entries %d\n", st.MemoEntries)
		// Incremental engine residency (the delta_* counters and the
		// delta_frontier_size histogram live in the registry lines above).
		fmt.Fprintf(&sb, "versions_resident %d\n", st.VersionsResident)
		// Durability: journal counters plus the startup recovery verdict.
		ri := s.RecoveryInfo()
		fmt.Fprintf(&sb, "recovery_enabled %d\n", boolToInt(ri.Enabled))
		fmt.Fprintf(&sb, "recovery_done %d\n", boolToInt(ri.Done))
		fmt.Fprintf(&sb, "recovery_warmed_cache %d\n", ri.WarmedCache)
		fmt.Fprintf(&sb, "recovery_warmed_idem %d\n", ri.WarmedIdem)
		fmt.Fprintf(&sb, "recovery_warmed_versions %d\n", ri.WarmedVersions)
		fmt.Fprintf(&sb, "recovery_pending_recovered %d\n", ri.PendingRecovered)
		fmt.Fprintf(&sb, "recovery_torn_tails %d\n", ri.Replay.TornTails)
		fmt.Fprintf(&sb, "recovery_corrupt_segments %d\n", ri.Replay.CorruptSegments)
		if ri.Journal != nil {
			fmt.Fprintf(&sb, "journal_appends_total %d\n", ri.Journal.Appends)
			fmt.Fprintf(&sb, "journal_append_bytes_total %d\n", ri.Journal.AppendBytes)
			fmt.Fprintf(&sb, "journal_fsyncs_total %d\n", ri.Journal.Fsyncs)
			fmt.Fprintf(&sb, "journal_rotations_total %d\n", ri.Journal.Rotations)
			fmt.Fprintf(&sb, "journal_compactions_total %d\n", ri.Journal.Compactions)
			fmt.Fprintf(&sb, "journal_live_segments %d\n", ri.Journal.LiveSegments)
		}
		for i, d := range st.PerDevice {
			fmt.Fprintf(&sb, "device_health_%d %.4f\n", i, d.Health)
			fmt.Fprintf(&sb, "device_breaker_%d %d\n", i, int(s.pool.BreakerState(i)))
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, sb.String())
	})
	drainStatus := func(w http.ResponseWriter) {
		st := s.Stats()
		states := make([]string, len(st.PerDevice))
		for i, d := range st.PerDevice {
			states[i] = d.Breaker
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"draining":    st.Draining,
			"queue_depth": st.QueueDepth,
			"quarantined": st.Quarantined,
			"breakers":    states,
		})
	}
	mux.HandleFunc("GET /recoveryz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.RecoveryInfo())
	})
	mux.HandleFunc("GET /drainz", func(w http.ResponseWriter, r *http.Request) {
		drainStatus(w)
	})
	mux.HandleFunc("POST /drainz", func(w http.ResponseWriter, r *http.Request) {
		s.RequestDrain()
		w.WriteHeader(http.StatusAccepted)
		drainStatus(w)
	})
	return mux
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// admitEpoch is a worker's coordinator fence: it refuses a request whose
// X-GC-Epoch is malformed or below the guard's high-water mark, writing
// the reply, and reports whether the request may go on.
func admitEpoch(g *EpochGuard, w http.ResponseWriter, r *http.Request, rid string) bool {
	epoch, err := ParseEpoch(r.Header.Get(EpochHeader))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error(), rid)
		return false
	}
	if !g.Observe(epoch) {
		// 409, not 5xx: retrying the same call from the same stale
		// coordinator can never succeed, and the coordinator-side error
		// judge must treat this as "stop", not "fail over".
		WriteError(w, http.StatusConflict, "stale_epoch",
			fmt.Sprintf("epoch %d is stale (worker has seen %d)", epoch, g.Current()), rid)
		return false
	}
	return true
}

// ColorExec is an executor's half of POST /color: it serves a decoded
// request, whose RequestID and IdemKey are set and whose deadline is in
// ctx, and returns the reply, colors included.
type ColorExec func(ctx context.Context, cr *ColorRequest, req *Request) (*ColorResponse, error)

// ServeColor answers one POST /color for the executor behind this front
// door, once the executor's own checks have passed and rid, the request's
// ID, is in X-Request-ID. It reads the body under limit bytes (<= 0: no
// cap) and answers a repeat from the request memo; otherwise it decodes
// the body, applies its timeout_ms and runs exec. A body too large or one
// that does not decode is the client's error (413 too_large, 400
// bad_request); an error exec returns goes to fail, which writes the
// executor's own status, kind and Retry-After. Workers and coordinators
// both serve /color through it.
func (a *Admission) ServeColor(w http.ResponseWriter, r *http.Request, rid string, limit int64, exec ColorExec, fail func(w http.ResponseWriter, err error, rid string)) {
	// The body is kept in its wire form: it becomes the journal accept
	// record's replay payload.
	raw, err := ReadBody(w, r, limit)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), rid)
			return
		}
		WriteError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("read: %v", err), rid)
		return
	}
	idemKey := sanitizeRequestID(r.Header.Get("Idempotency-Key"))
	up := &Upload{ContentType: r.Header.Get("Content-Type"), RawQuery: r.URL.RawQuery, Body: raw}
	if out, ok := a.Recall(up, rid, idemKey); ok {
		writeColor(w, out)
		return
	}
	cr, req, err := a.Decode(up)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error(), rid)
		return
	}
	req.RequestID, req.IdemKey = rid, idemKey
	ctx := r.Context()
	if cr.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(cr.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	out, err := exec(ctx, cr, req)
	if err != nil {
		fail(w, err, rid)
		return
	}
	if !cr.IncludeColors {
		out.Colors = nil
	}
	writeColor(w, out)
}

func writeColor(w http.ResponseWriter, out *ColorResponse) {
	w.Header().Set("Content-Type", "application/json")
	// A failed write leaves nothing to do: the headers are gone.
	_ = WriteColorResponse(w, out)
}

// WireResponse renders a served request's response as the POST /color
// reply, colors included. Delta requests have no graph of their own; the
// successor's size comes back in the response.
func WireResponse(res *Response, req *Request) *ColorResponse {
	out := &ColorResponse{
		Fingerprint: graph.FingerprintString(res.Fingerprint),
		NumColors:   res.NumColors,
		Colors:      res.Colors,
		Vertices:    res.Vertices,
		Edges:       res.Edges,
		Cycles:      res.Cycles,
		Iterations:  res.Iterations,
		Recovery:    res.Recovery.String(),
		Attempts:    res.Attempts,
		Repaired:    res.Repaired,
		Cached:      res.Cached,
		Coalesced:   res.Coalesced,
		Hedged:      res.Hedged,
		Device:      res.Device,
		WaitUS:      res.Wait.Microseconds(),
		ExecUS:      res.Exec.Microseconds(),

		RequestID:        res.RequestID,
		IdempotentReplay: res.IdempotentReplay,
		Worker:           res.Worker,
		Scattered:        res.Scattered,
		Redispatched:     res.Redispatched,
	}
	if req.Graph != nil {
		out.Vertices, out.Edges = req.Graph.NumVertices(), req.Graph.NumEdges()
	}
	if res.Shards > 1 {
		out.Shards = res.Shards
		out.ShardConflicts = res.ShardConflicts
		out.ShardRepairRounds = res.ShardRepairRounds
		out.ShardRecolored = res.ShardRecolored
	}
	if res.Delta {
		out.Delta = true
		out.FrontierSize = res.FrontierSize
		out.DeltaFallback = res.DeltaFallback
	}
	if req.BaseFingerprint != 0 {
		out.BaseFingerprint = graph.FingerprintString(req.BaseFingerprint)
	}
	return out
}

// ResponseOf is the in-process form of a POST /color reply — how a
// cluster coordinator holds a worker's answer. It fails only on a
// fingerprint that does not parse.
func ResponseOf(cr *ColorResponse) (*Response, error) {
	fp, err := ParseFingerprint(cr.Fingerprint)
	if err != nil {
		return nil, err
	}
	res := &Response{
		Fingerprint:       fp,
		Colors:            cr.Colors,
		NumColors:         cr.NumColors,
		Cycles:            cr.Cycles,
		Iterations:        cr.Iterations,
		Attempts:          cr.Attempts,
		Repaired:          cr.Repaired,
		Cached:            cr.Cached,
		Coalesced:         cr.Coalesced,
		IdempotentReplay:  cr.IdempotentReplay,
		RequestID:         cr.RequestID,
		Hedged:            cr.Hedged,
		Delta:             cr.Delta,
		FrontierSize:      cr.FrontierSize,
		DeltaFallback:     cr.DeltaFallback,
		Vertices:          cr.Vertices,
		Edges:             cr.Edges,
		Shards:            cr.Shards,
		ShardConflicts:    cr.ShardConflicts,
		ShardRepairRounds: cr.ShardRepairRounds,
		ShardRecolored:    cr.ShardRecolored,
		Device:            cr.Device,
		Wait:              time.Duration(cr.WaitUS) * time.Microsecond,
		Exec:              time.Duration(cr.ExecUS) * time.Microsecond,
		Worker:            cr.Worker,
		Scattered:         cr.Scattered,
		Redispatched:      cr.Redispatched,
	}
	for l := gpucolor.RecoveryNone; l <= gpucolor.RecoveryCPU; l++ {
		if l.String() == cr.Recovery {
			res.Recovery = l
		}
	}
	return res, nil
}

// ContentTypeBinaryCSR is the POST /color media type for the binary CSR
// wire format (graph.EncodeWireCSR frames). Bodies of this type carry the
// graph alone; coloring options ride in the query string (same names as
// the ColorRequest JSON fields).
const ContentTypeBinaryCSR = "application/x-gcolor-csr"

// isBinaryCSR matches the binary CSR media type, ignoring parameters.
func isBinaryCSR(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == ContentTypeBinaryCSR
}

// ReadBody reads a POST /color body under limit bytes (limit <= 0 means
// no cap); an oversized body fails with *http.MaxBytesError. A declared
// Content-Length within the limit sizes the buffer up front, so the read
// is one allocation and one copy; an unknown length, or no limit to bound
// what a client may declare, keeps io.ReadAll's growing reads.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if limit <= 0 {
		return io.ReadAll(r.Body)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	if r.ContentLength <= 0 || r.ContentLength > limit {
		return io.ReadAll(body)
	}
	// One spare byte lets the read that meets EOF land without growing.
	buf := make([]byte, 0, r.ContentLength+1)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// colorRequestFromQuery fills cr's option fields from URL query
// parameters — the option channel for binary-body uploads, which have no
// JSON envelope to carry them. Parameter names match the JSON field names.
func colorRequestFromQuery(cr *ColorRequest, q url.Values) error {
	cr.Alg = q.Get("alg")
	cr.Policy = q.Get("policy")
	cr.Priority = q.Get("priority")
	for _, p := range []struct {
		name string
		dst  any
	}{
		{"seed", &cr.Seed},
		{"threshold", &cr.Threshold},
		{"fused", &cr.Fused},
		{"cycle_budget", &cr.CycleBudget},
		{"max_retries", &cr.MaxRetries},
		{"no_cpu_fallback", &cr.NoCPUFallback},
		{"no_cache", &cr.NoCache},
		{"shards", &cr.Shards},
		{"timeout_ms", &cr.TimeoutMS},
		{"include_colors", &cr.IncludeColors},
		{"resident", &cr.Resident},
	} {
		v := q.Get(p.name)
		if v == "" {
			continue
		}
		var err error
		switch dst := p.dst.(type) {
		case *uint32:
			var u uint64
			u, err = strconv.ParseUint(v, 10, 32)
			*dst = uint32(u)
		case *int:
			*dst, err = strconv.Atoi(v)
		case *int64:
			*dst, err = strconv.ParseInt(v, 10, 64)
		case *bool:
			*dst, err = strconv.ParseBool(v)
		}
		if err != nil {
			return fmt.Errorf("query param %s: %v", p.name, err)
		}
	}
	return nil
}

// Decode turns an upload into the wire options it carries and the Request
// they describe. The body is a JSON ColorRequest (decodeColorRequest), or
// — under ContentTypeBinaryCSR, with the options in a query that must
// parse — a binary CSR graph
// frame (decoded straight into CSR arrays, its fingerprint computed in the
// same pass) or a GCSD delta frame (sniffed by magic), whose base
// fingerprint and edit lists are copied into the returned options as a
// JSON delta carries them. A JSON body is kept as the Request's journal
// replay payload; a binary one gets its graph_csr_b64 (or delta) envelope
// built only if it is journaled. Every error is the client's. The Request
// has no RequestID or IdemKey yet; it carries the upload's memo digest
// when Recall computed one and the request's answer is all it does.
func (a *Admission) Decode(u *Upload) (*ColorRequest, *Request, error) {
	cr := new(ColorRequest)
	var req *Request
	if isBinaryCSR(u.ContentType) {
		a.reg.Counter("wire_binary_requests_total").Inc()
		q, err := url.ParseQuery(u.RawQuery)
		if err != nil {
			return nil, nil, fmt.Errorf("query: %v", err)
		}
		if err := colorRequestFromQuery(cr, q); err != nil {
			return nil, nil, err
		}
		if graph.IsWireDelta(u.Body) {
			baseFp, d, err := graph.DecodeWireDelta(u.Body)
			if err != nil {
				return nil, nil, fmt.Errorf("delta frame: %v", err)
			}
			if req, err = requestFromOptions(cr, nil, 0); err != nil {
				return nil, nil, err
			}
			req.BaseFingerprint, req.Delta = baseFp, d
			cr.BaseFingerprint = graph.FingerprintString(baseFp)
			cr.AddVertices, cr.AddEdges, cr.RemoveEdges = d.AddVertices, d.AddEdges, d.RemoveEdges
		} else {
			g, fp, err := graph.DecodeWireCSR(u.Body)
			if err != nil {
				return nil, nil, fmt.Errorf("csr frame: %v", err)
			}
			if req, err = requestFromOptions(cr, g, fp); err != nil {
				return nil, nil, err
			}
			req.csrFrame = u.Body
		}
		req.csrOpts = cr
	} else {
		fellBack, err := decodeColorRequest(u.Body, cr)
		if fellBack {
			a.reg.Counter("wire_json_fallback_total").Inc()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("decode: %v", err)
		}
		if req, err = a.Request(cr); err != nil {
			return nil, nil, err
		}
		req.Wire = u.Body
	}
	if u.memo.set && req.Graph != nil && !req.Resident && !req.NoCache {
		req.memo = u.memo
		req.memo.includeColors = cr.IncludeColors
	}
	return cr, req, nil
}

// buildRequest converts the wire request to a serve.Request. Delta
// requests (base_fingerprint set) return a nil graph: the server resolves
// the base version and builds the successor itself.
func buildRequest(cr *ColorRequest, specs *specCache) (*Request, *graph.Graph, error) {
	var g *graph.Graph
	var fp uint64
	var err error
	set := 0
	for _, s := range []string{cr.Gen, cr.Graph, cr.GraphCSRB64} {
		if s != "" {
			set++
		}
	}
	if cr.BaseFingerprint != "" {
		if set != 0 {
			return nil, nil, errors.New("a delta request (base_fingerprint) must not also carry graph, gen, or graph_csr_b64")
		}
		baseFp, err := ParseFingerprint(cr.BaseFingerprint)
		if err != nil {
			return nil, nil, err
		}
		req, err := requestFromOptions(cr, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		req.BaseFingerprint = baseFp
		req.Delta = &graph.Delta{
			AddVertices: cr.AddVertices,
			AddEdges:    cr.AddEdges,
			RemoveEdges: cr.RemoveEdges,
		}
		return req, nil, nil
	}
	if set != 1 {
		return nil, nil, errors.New("set exactly one of graph, gen, and graph_csr_b64")
	}
	switch {
	case cr.Gen != "":
		g, err = specs.get(cr.Gen)
	case cr.Graph != "":
		g, err = graph.ParseEdgeList(cr.Graph)
	default:
		var frame []byte
		frame, err = base64.StdEncoding.DecodeString(cr.GraphCSRB64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph_csr_b64: %v", err)
		}
		g, fp, err = graph.DecodeWireCSR(frame)
	}
	if err != nil {
		return nil, nil, err
	}
	req, err := requestFromOptions(cr, g, fp)
	if err != nil {
		return nil, nil, err
	}
	return req, g, nil
}

// requestFromOptions builds a serve.Request from a resolved graph and the
// wire request's option fields. fp may be the frame-streaming fingerprint
// (binary ingest) or zero (Submit computes it).
func requestFromOptions(cr *ColorRequest, g *graph.Graph, fp uint64) (*Request, error) {
	alg := gpucolor.AlgBaseline
	var err error
	if cr.Alg != "" {
		alg, err = gpucolor.ParseAlgorithm(cr.Alg)
		if err != nil {
			return nil, err
		}
	}
	pol, err := ParseSchedPolicy(cr.Policy)
	if err != nil {
		return nil, err
	}
	prio, ok := ParsePriority(cr.Priority)
	if !ok {
		return nil, fmt.Errorf("unknown priority %q", cr.Priority)
	}
	return &Request{
		Graph:           g,
		Fingerprint:     fp,
		Resident:        cr.Resident,
		Algorithm:       alg,
		Seed:            cr.Seed,
		HybridThreshold: cr.Threshold,
		Fused:           cr.Fused,
		Policy:          pol,
		Priority:        prio,
		CycleBudget:     cr.CycleBudget,
		MaxRetries:      cr.MaxRetries,
		NoCPUFallback:   cr.NoCPUFallback,
		NoCache:         cr.NoCache,
		Shards:          cr.Shards,
	}, nil
}

// classifyErr maps serve/gpucolor failures to HTTP status + error kind.
func classifyErr(err error) (int, string) {
	var ube *UnknownBaseError
	var bde *BadDeltaError
	switch {
	case errors.As(err, &ube):
		// 404: the base version is not resident here. The client's recovery
		// is to re-upload the full graph as resident and resume the stream.
		return http.StatusNotFound, "unknown_base"
	case errors.As(err, &bde):
		return http.StatusBadRequest, "bad_delta"
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrShedding):
		return http.StatusTooManyRequests, "shedding"
	case errors.Is(err, ErrDeadlineInQueue):
		// Expired while queued: to the caller it is the same deadline
		// failure as expiring mid-execution. Checked before ErrClosed
		// because the wrapped context error never matches it, and before
		// isDeadline only for clarity — both land on the same reply.
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, ErrDraining):
		// Before ErrClosed: ErrDraining wraps it, and "retry elsewhere,
		// this instance is going away" is the more useful signal.
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "closed"
	case isDeadline(err):
		return http.StatusGatewayTimeout, "deadline"
	default:
		return http.StatusInternalServerError, "failed"
	}
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// WriteError writes a non-2xx reply of either role: status, and an
// errorResponse body of msg, kind and the request ID rid (omitted when
// empty).
func WriteError(w http.ResponseWriter, status int, kind, msg, rid string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg, Kind: kind, RequestID: rid})
}
