// Package cluster turns gcolord into a multi-node fleet: a coordinator
// role that owns no devices but knows every worker, and worker roles that
// are plain gcolord daemons (internal/serve) registered with the
// coordinator.
//
// The paper's load-imbalance lesson, lifted two levels now: hub vertices
// serialize wavefronts inside a device (PR 0), whole graphs on one device
// serialize the pool (PR 5), and whole jobs on one node serialize the
// fleet. The coordinator spreads that load the same way the shard layer
// spreads a graph:
//
//   - membership: workers join over HTTP (POST /cluster/join) or are
//     pinned with -peers; a heartbeat loop probes /healthz, and every
//     routed job's outcome feeds the worker's EWMA health score and
//     circuit breaker — internal/serve's own FleetHealth and Breaker, the
//     device pool's self-healing machinery, because a worker is just a
//     bigger device.
//   - routing: small graphs are forwarded whole to the worker that wins
//     rendezvous hashing on the graph fingerprint, so repeat traffic for
//     one graph lands on the node whose local cache already holds it,
//     and adding a worker moves only the keys it now wins (~1/N).
//   - scatter-gather: large graphs are split with internal/shard's
//     edge-balanced partitioner, one sub-job per shard POSTed to a
//     distinct worker (no-cache, so only the coordinator caches the
//     merged result), and the merge barrier plus bounded boundary-repair
//     loop run at the coordinator — the distributed shape of Bogle &
//     Slota (arXiv:2107.00075) with Rokos-style repair convergence
//     (arXiv:1505.04086).
//   - failover: a worker failing mid-job (transport error or 5xx) gets
//     its whole-graph route or shard re-dispatched to a different healthy
//     worker, excluded-by-id, with bounded attempts and typed errors.
//   - the front door: idempotent replay, the merged-result cache,
//     coalescing, the drain gate and durability are serve's admission
//     core (serve.Admission), the same one a worker runs; only how a miss
//     runs differs. With a journal attached the core writes accept records
//     before dispatch and completion records after, compacts the journal
//     from snapshots of its live state, and on restart warm-starts and
//     replays pending accepts, so a coordinator crash loses no accepted
//     fleet work.
//
// Coordinator is the in-process API; Handler wraps it for gcolord
// -role coordinator, and JoinLoop is the worker-side membership pump.
package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"gcolor/internal/journal"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
)

// ErrNoWorkers reports a coordinator with no live worker to route to:
// none ever joined, or every member is expired or quarantined with
// nothing to fail open onto.
var ErrNoWorkers = errors.New("cluster: no live workers")

// ErrFleetBusy reports a submission refused by the coordinator's
// admission cap (maxInflight); the HTTP layer maps it to 429 with
// a Retry-After computed from worker-reported queue depths. It wraps
// serve.ErrShedding, so the front door treats it as a worker's shed: a
// rejection the caller retries.
var ErrFleetBusy = fmt.Errorf("cluster: fleet at max inflight: %w", serve.ErrShedding)

// WorkerError is the typed failure of one worker call: transport errors
// carry Status 0, HTTP failures the worker's status code and error kind.
type WorkerError struct {
	// Worker is the member's base URL.
	Worker string
	// Status is the HTTP status the worker returned (0 = the call never
	// produced a response: dial/write/read failure, worker died mid-job).
	Status int
	// Kind is the worker's typed error kind ("queue_full", "failed", ...)
	// or "transport".
	Kind string
	// RetryAfter is the worker's Retry-After hint in seconds (0 = none);
	// the coordinator propagates it upstream on 429/503 replies.
	RetryAfter int
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *WorkerError) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("cluster: worker %s: %v", e.Worker, e.Err)
	}
	return fmt.Sprintf("cluster: worker %s: http %d (%s): %v", e.Worker, e.Status, e.Kind, e.Err)
}

// Unwrap exposes the underlying error.
func (e *WorkerError) Unwrap() error { return e.Err }

// Retryable reports whether another worker might succeed where this one
// failed: transport failures, worker-side 5xx, and overload rejections
// (429) are retryable; request errors (4xx) are not — every replica would
// refuse the same body.
func (e *WorkerError) Retryable() bool {
	return e.Status == 0 || e.Status >= 500 || e.Status == http.StatusTooManyRequests
}

// ShardError is the typed failure of one shard of a scatter-gather after
// its dispatch attempts (initial + re-dispatches) were exhausted.
type ShardError struct {
	Shard    int // shard index
	Shards   int // total shards in the job
	Attempts int // dispatch attempts made
	Err      error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d/%d failed after %d attempts: %v", e.Shard, e.Shards, e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error.
func (e *ShardError) Unwrap() error { return e.Err }

// Fleet tuning, the same for every coordinator.
const (
	// expireProbes is how many probe intervals a member may go unseen
	// (no probe, join or answered job) before it counts as down. With
	// probing off a member never expires from silence, which then says
	// nothing about it.
	expireProbes = 6
	// heartbeatMisses is the consecutive probe failures that demote a
	// member, and readmitStreak the consecutive successes that re-admit
	// it: hysteresis, so a flapping link does not oscillate membership.
	heartbeatMisses = 3
	readmitStreak   = 2
	// grayScore is the health score below which a member loses its
	// rendezvous preference while its breaker is still closed: the
	// gray-failure demotion.
	grayScore = 0.5
	// maxInflight caps the requests in flight at the coordinator: a miss
	// that would exceed it is refused with ErrFleetBusy and a Retry-After
	// computed from worker-reported queue depths, so overload sheds at the
	// fleet's edge instead of timing out mid-scatter. Cache hits and
	// idempotent replays are always answered.
	maxInflight = 1024
	// routeAttempts bounds the workers tried for one whole-graph job or
	// delta: the first pick and two failovers.
	routeAttempts = 3
	// workerTimeout bounds one worker call; a request's own deadline still
	// applies when shorter.
	workerTimeout = 60 * time.Second
)

// Config sizes a Coordinator. Zero values take the documented defaults.
type Config struct {
	// Peers are static worker base URLs registered at startup; more
	// workers may join dynamically via POST /cluster/join.
	Peers []string

	// HeartbeatInterval paces the membership probe loop (default 500ms;
	// negative disables probing, leaving liveness to push joins). A member
	// unseen for 6 intervals is down; with probing off, silence never
	// expires a member.
	HeartbeatInterval time.Duration

	// Epoch is the coordinator's fencing epoch, sent as X-GC-Epoch on
	// every worker call and returned in join replies. Workers reject calls
	// from epochs below their high-water mark, so a deposed primary cannot
	// keep dispatching after a standby takeover. 0 means "no epoch"
	// (single-coordinator deployments; nothing is fenced).
	Epoch uint64

	// CacheEntries sizes the coordinator's merged-result LRU (default 512;
	// negative disables), keyed like a worker's by fingerprint, policy and
	// shard count — the count the request asks for, so auto requests share
	// one key whatever the fleet's size. Shard sub-jobs are sent no-cache,
	// so this is the only place a scattered result is stored.
	CacheEntries int

	// Shard is the shard policy a graph upload is scattered by, one shard
	// per live worker (the zero value takes its defaults; Disabled routes
	// every job whole). A resident upload always runs whole.
	Shard shard.Policy

	// Journal, when set, makes the coordinator crash-safe: accepts are
	// journaled before dispatch and completions after, by the same
	// admission core a worker runs, which also registers itself as the
	// journal's compaction source. The caller owns journal.Close.
	Journal *journal.Journal
	// Recovery, when set, warm-starts the merged-result cache and
	// idempotency map from replayed completions and re-dispatches pending
	// accepts in the background.
	Recovery *journal.Recovery
	// ReplayParallelism bounds concurrent recovery re-dispatches
	// (default 4).
	ReplayParallelism int

	// Client is the HTTP client for worker calls. Defaults to a pooled
	// keep-alive client (NewWorkerClient) sized for the fleet.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = NewWorkerClient(workerTimeout, 0)
	}
	return c
}
