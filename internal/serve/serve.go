// Package serve is the concurrent graph-coloring service: the layer that
// turns the single-request resilient driver (gpucolor.ColorContext) into a
// daemon that serves many callers from a fixed pool of simulated devices.
//
// The paper's theme — scheduling irregular work onto compute units without
// letting one hot spot starve the rest — recurs here one level up. The
// pieces, in request order:
//
//   - result cache: completed colorings are kept in an LRU keyed by the
//     graph's content fingerprint plus the policy knobs that affect the
//     coloring; a hit answers without touching queue or devices.
//   - coalescing: duplicate in-flight requests (same key) attach to the
//     execution already running instead of enqueueing again.
//   - admission control: a bounded priority queue rejects work outright
//     when full (ErrQueueFull) and sheds low-priority work early when
//     occupancy crosses the shed threshold (ErrShedding), so overload
//     degrades by policy rather than by luck.
//   - device pool: N independently configured simt devices, leased to one
//     job at a time; workers dequeue (skipping jobs whose deadline already
//     passed — they never reach a device), lease, run the full resilient
//     ladder, and publish the result to every coalesced waiter.
//   - self-healing (health.go, breaker.go, hedge.go): every job outcome
//     feeds a per-device EWMA health score; leases are weighted by it, a
//     per-device circuit breaker quarantines sick devices and re-admits
//     them through half-open probe jobs, and jobs running past the P99 of
//     recent successes are hedged onto a second healthy device, first
//     result winning.
//   - graceful drain: Drain stops admission, lets queued and in-flight
//     jobs finish (or hands them back at the deadline), and reports a
//     typed summary — the gcolord SIGTERM path.
//
// Idempotent replay, the result cache, coalescing, the drain gate and the
// journal together are the admission front door (Admission), which the
// cluster coordinator runs in front of its workers as well.
//
// Server is the in-process API; http.go wraps it for cmd/gcolord.
package serve

import (
	"encoding/base64"
	"encoding/json"
	"time"

	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// Priority orders jobs in the admission queue. Higher runs first; within a
// priority level the queue is FIFO.
type Priority int

// Priority levels. Under shed pressure (queue occupancy at or above the
// shed threshold) only PriorityHigh work is admitted.
const (
	PriorityLow    Priority = -1
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 1
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	default:
		return "unknown"
	}
}

// ParsePriority converts a name as printed by String.
func ParsePriority(s string) (Priority, bool) {
	switch s {
	case "low":
		return PriorityLow, true
	case "normal", "":
		return PriorityNormal, true
	case "high":
		return PriorityHigh, true
	}
	return PriorityNormal, false
}

// Request is one coloring job.
type Request struct {
	// Graph is the graph to color. Required.
	Graph *graph.Graph

	// Algorithm selects the GPU coloring algorithm (default AlgBaseline).
	Algorithm gpucolor.Algorithm
	// Seed is the vertex priority seed (0 means 1, as in gpucolor.Options).
	Seed uint32
	// HybridThreshold is the hybrid degree split (0 = device workgroup size).
	HybridThreshold int
	// Fused runs the iterative algorithms with the fused assign+flag
	// kernel: bit-identical colorings in strictly fewer simulated cycles
	// (see gpucolor.Options.Fused).
	Fused bool
	// Policy selects the workgroup scheduling policy on the leased device.
	Policy simt.Policy

	// Priority places the job in the admission queue.
	Priority Priority

	// Shards selects sharded scatter-gather execution: the graph is split
	// into K edge-balanced shards colored in parallel on separate pool
	// devices, then reconciled with the bounded boundary repair loop.
	// 0 means auto (shard when the graph crosses the server's configured
	// size thresholds), 1 forces single-device execution, and K >= 2
	// forces K shards (clamped to shard.MaxShards and the vertex count).
	// Negative values behave like 1, on a coordinator too.
	Shards int

	// CycleBudget, MaxRetries, NoCPUFallback configure the resilient
	// ladder per job; see gpucolor.ResilientOptions.
	CycleBudget   int64
	MaxRetries    int
	NoCPUFallback bool

	// NoCache bypasses both the result cache and request coalescing:
	// the job always executes on a device.
	NoCache bool

	// RequestID is the per-request correlation ID (the HTTP layer honors
	// an inbound X-Request-ID or generates one). It pairs journal accept
	// and completion records; empty for callers that opt out of both.
	RequestID string
	// IdemKey is the client's Idempotency-Key: retries carrying the same
	// key — including retries across a server restart — are answered from
	// the journal-backed idempotency map instead of recoloring.
	IdemKey string
	// Fingerprint, when non-zero, is the graph's precomputed content
	// fingerprint (graph.Fingerprint). The binary CSR ingest path computes
	// it streaming while decoding the upload and passes it here so Submit
	// does not hash the graph a second time; zero means compute.
	Fingerprint uint64

	// Delta, when set, makes this a delta request: the mutation is applied
	// to the resident version identified by BaseFingerprint and only the
	// affected frontier is recolored (falling back to a full recolor of the
	// successor when the frontier exceeds the budget). Graph must be nil.
	Delta *graph.Delta
	// BaseFingerprint identifies the resident base version a Delta applies
	// to. An unknown base fails with *UnknownBaseError.
	BaseFingerprint uint64
	// Resident pins the result (graph + coloring) in the versioned graph
	// store so later delta requests can use it as a base. Delta requests
	// are implicitly resident: every successor extends the chain.
	Resident bool
	// Wire is the request's own wire form (ColorRequest JSON). A request
	// carrying it is replayable: the server journals its acceptance and
	// can rebuild and re-run it after a crash. Requests without Wire are
	// served normally but cannot be replayed.
	Wire json.RawMessage

	// csrOpts is a binary upload's options as Decode read them (a delta
	// frame's edits included), and csrFrame its graph frame. Journal
	// replay rebuilds requests from JSON, so a binary upload's Wire is an
	// envelope: its options, with the frame base64-wrapped in
	// graph_csr_b64. admit builds it only for a job it journals; cache
	// hits never pay for it.
	csrFrame []byte
	csrOpts  *ColorRequest

	// memo is the memo digest of the upload this request was decoded
	// from, when it is one Admission.serve should record (memo.go).
	memo memoTag
	// noColors marks a request whose reply carries no colors (a memo
	// recall without include_colors): an answer from memory leaves its
	// Colors nil rather than unpack a stored coloring no one reads.
	noColors bool
}

// replayWire returns the request's journal wire form, building a binary
// upload's envelope on first use.
func (r *Request) replayWire() json.RawMessage {
	if len(r.Wire) == 0 && r.csrOpts != nil {
		env := *r.csrOpts
		if r.csrFrame != nil {
			env.GraphCSRB64 = base64.StdEncoding.EncodeToString(r.csrFrame)
		}
		if wire, err := json.Marshal(&env); err == nil {
			r.Wire = wire
		}
	}
	return r.Wire
}

// CSRFrame returns the request's graph as a binary CSR wire frame: the
// upload's own bytes when it arrived as one, else graph.EncodeWireCSR of
// Graph.
func (r *Request) CSRFrame() []byte {
	if r.csrFrame != nil {
		return r.csrFrame
	}
	return graph.EncodeWireCSR(r.Graph)
}

// policyKey folds every request knob that can change the *coloring* (not
// just the simulated statistics) into the cache/coalescing key. Device
// geometry is deliberately excluded: a verified proper coloring of the
// fingerprinted graph is valid regardless of which pool device produced it.
func (r *Request) policyKey() uint64 {
	k := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) {
		k ^= v
		k *= 0x100000001b3
	}
	mix(uint64(r.Algorithm))
	mix(uint64(r.Seed))
	// Mix the threshold as the kernels will see it: two raw values that
	// normalize to the same effective threshold produce the same coloring
	// and must share a key, and two that normalize differently (e.g. 5 vs
	// 2^32+5, which a bare uint32 truncation would conflate) must not.
	mix(uint64(gpucolor.NormalizeHybridThreshold(r.HybridThreshold)))
	// Fused is deliberately excluded: fused and unfused runs produce
	// bit-identical colorings, so their results are interchangeable in the
	// cache and coalescable with each other.
	return k
}

// Response is the outcome of a served request.
type Response struct {
	// Fingerprint identifies the graph content (graph.Fingerprint).
	Fingerprint uint64
	// Colors is the verified proper coloring; NumColors the count used.
	Colors    []int32
	NumColors int

	// Cycles and Iterations are the simulated-device evidence of the run
	// that produced the coloring (zero for RecoveryCPU and for cache hits
	// whose producing run degraded to the CPU).
	Cycles     int64
	Iterations int

	// Recovery, Attempts, Repaired echo the resilient driver's Outcome.
	Recovery gpucolor.RecoveryLevel
	Attempts int
	Repaired int

	// Cached reports a result-cache hit (no queue, no device).
	// Coalesced reports that this request attached to another request's
	// in-flight execution.
	Cached    bool
	Coalesced bool
	// IdempotentReplay reports that the request's Idempotency-Key matched
	// a previously journaled completion: the stored result was returned
	// without re-execution (possibly across a server restart).
	IdempotentReplay bool
	// RequestID echoes the request's correlation ID.
	RequestID string
	// Hedged reports that the job ran long enough to be speculatively
	// re-dispatched to a second device (whichever attempt won, exactly one
	// result was returned and the loser was canceled).
	Hedged bool

	// Batched and BatchSize are always zero: every job runs as its own
	// launch, so Cycles and Iterations are this graph's alone. The fields
	// stay for readers that still report them.
	Batched   bool
	BatchSize int

	// Delta reports that the request was served through the incremental
	// engine: FrontierSize is the number of vertices whose neighbourhood
	// the mutation changed, and DeltaFallback reports that the successor
	// was recolored from scratch (frontier over budget) rather than
	// frontier-repaired. Vertices and Edges describe the successor graph —
	// delta callers have no Graph of their own to measure.
	Delta         bool
	FrontierSize  int
	DeltaFallback bool
	Vertices      int
	Edges         int

	// Shards is the number of shards the job ran as (1 for single-device
	// execution). The remaining Shard* fields are zero unless Shards > 1:
	// ShardConflicts counts the cut edges that were monochromatic after
	// the merge barrier, ShardRepairRounds the boundary repair rounds run,
	// and ShardRecolored the vertices recolored to reconcile the shards.
	Shards            int
	ShardConflicts    int
	ShardRepairRounds int
	ShardRecolored    int

	// Device is the pool index of the device that ran the job (-1 for
	// cache hits and sharded runs, which span several devices).
	Device int

	// Cluster evidence, set only by a coordinator: the worker that ran a
	// routed job, whether the job was scattered across workers, and how
	// many route or shard attempts were re-dispatched after a failure.
	Worker       string
	Scattered    bool
	Redispatched int
	// Wait is the time the job spent queued; Exec the device execution
	// time. Both zero for cache hits.
	Wait time.Duration
	Exec time.Duration

	// colors8 is Colors one byte per vertex, set (with Colors nil) only on
	// the responses the result cache and idempotency LRU keep; see
	// packResponse.
	colors8 []byte
}
