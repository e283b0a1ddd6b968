// Package gcolor is a Go reproduction of "Graph Coloring on the GPU and Some
// Techniques to Improve Load Imbalance" (Che, Rodgers, Beckmann, Reinhardt;
// IPDPSW 2015). It couples GPU graph-coloring algorithms — the iterative
// independent-set baseline, colorMaxMin, speculative first-fit, a
// work-stealing workgroup scheduler, and the degree-split hybrid — with a
// deterministic SIMT GPU simulator that stands in for the paper's Radeon
// HD 7950, plus CPU reference algorithms, synthetic graph generators, and
// the experiment harness that regenerates every table and figure.
//
// This package is the stable facade over the implementation packages:
//
//	g := gcolor.RMAT(14, 16, 1)                  // a scale-free graph
//	dev := gcolor.NewDevice()                    // an HD 7950-like device
//	res, err := gcolor.ColorGPU(dev, g, gcolor.AlgHybrid, gcolor.Options{})
//	// res.Colors, res.NumColors, res.Cycles, res.SIMDUtilization(), ...
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// recorded paper-versus-measured results.
package gcolor

import (
	"context"
	"io"
	"net/http"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/color"
	"gcolor/internal/exp"
	"gcolor/internal/gen"
	"gcolor/internal/gpuapps"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
	"gcolor/internal/simt"
)

// Graph is an undirected graph in CSR form (see internal/graph).
type Graph = graph.Graph

// Device is a simulated SIMT GPU (see internal/simt).
type Device = simt.Device

// Policy selects the workgroup scheduling policy of a Device.
type Policy = simt.Policy

// Scheduling policies.
const (
	Static     = simt.Static
	RoundRobin = simt.RoundRobin
	Stealing   = simt.Stealing
)

// NewDevice returns a device with Radeon HD 7950-like defaults: 28 compute
// units, 64-lane wavefronts, 256-item workgroups, static scheduling.
func NewDevice() *Device { return simt.NewDevice() }

// Algorithm names a GPU coloring algorithm.
type Algorithm = gpucolor.Algorithm

// GPU coloring algorithms.
const (
	AlgBaseline     = gpucolor.AlgBaseline
	AlgMaxMin       = gpucolor.AlgMaxMin
	AlgJP           = gpucolor.AlgJP
	AlgSpeculative  = gpucolor.AlgSpeculative
	AlgHybrid       = gpucolor.AlgHybrid
	AlgHybridMaxMin = gpucolor.AlgHybridMaxMin
	AlgHybridJP     = gpucolor.AlgHybridJP
)

// Options configures a GPU coloring run.
type Options = gpucolor.Options

// Result is the outcome of a GPU coloring run: the coloring plus the
// simulated performance evidence.
type Result = gpucolor.Result

// ColorGPU colors g on the simulated device with the chosen algorithm.
func ColorGPU(dev *Device, g *Graph, a Algorithm, opt Options) (*Result, error) {
	return gpucolor.Color(dev, g, a, opt)
}

// Resilient execution and fault injection (see internal/simt and
// internal/gpucolor for the full story).

// FaultInjector deterministically injects GPU faults (bit flips on reads,
// spurious CAS failures, wavefront aborts, workgroup stalls) into a Device;
// assign one to Device.Fault to arm it. A nil injector costs nothing.
type FaultInjector = simt.FaultInjector

// FaultStats counts the faults an injector has delivered.
type FaultStats = simt.FaultStats

// NewFaultInjector returns an injector applying rate to every fault class.
func NewFaultInjector(seed uint64, rate float64) *FaultInjector {
	return simt.NewFaultInjector(seed, rate)
}

// ResilientOptions configures ColorGPUContext.
type ResilientOptions = gpucolor.ResilientOptions

// Outcome is a resilient run's verified result plus recovery evidence.
type Outcome = gpucolor.Outcome

// RecoveryLevel records which recovery rung produced an Outcome.
type RecoveryLevel = gpucolor.RecoveryLevel

// Recovery rungs, cheapest first.
const (
	RecoveryNone   = gpucolor.RecoveryNone
	RecoveryRepair = gpucolor.RecoveryRepair
	RecoveryRetry  = gpucolor.RecoveryRetry
	RecoveryCPU    = gpucolor.RecoveryCPU
)

// Typed failures of the resilient driver, for errors.Is / errors.As.
var (
	ErrMaxIterations  = gpucolor.ErrMaxIterations
	ErrWatchdog       = gpucolor.ErrWatchdog
	ErrBudgetExceeded = gpucolor.ErrBudgetExceeded
)

// FaultError wraps a failure that happened under an armed fault injector.
type FaultError = gpucolor.FaultError

// InvalidColoringError reports a run whose coloring failed verification.
type InvalidColoringError = gpucolor.InvalidColoringError

// ColorGPUContext colors g under the resilient recovery ladder
// (validate, repair, retry, CPU fallback): it always returns a verified
// proper coloring or a typed error, honours ctx at iteration boundaries,
// and tolerates an armed fault injector on dev.
func ColorGPUContext(ctx context.Context, dev *Device, g *Graph, a Algorithm, opt ResilientOptions) (*Outcome, error) {
	return gpucolor.ColorContext(ctx, dev, g, a, opt)
}

// Sharded multi-device execution (see internal/shard): the graph is split
// into K edge-balanced shards, colored in parallel on separate devices
// through the resilient ladder, and reconciled with a bounded boundary
// repair loop. The result is always a verified proper coloring.

// ShardOptions configures a sharded coloring run: shard count, seed and
// fallback policy. Cuts are always refined, and boundary repair always
// gets 16 rounds before the fallback.
type ShardOptions = shard.Options

// ShardResult is a sharded run's verified global coloring plus the
// partition and boundary-repair evidence.
type ShardResult = shard.Result

// ShardRepairStats records the boundary reconciliation work of a
// sharded run: conflicts found, repair rounds, vertices recolored, and
// whether the CPU-greedy fallback fired.
type ShardRepairStats = shard.RepairStats

// ErrShardRepairBudget reports that boundary repair hit its round budget
// with conflicts remaining and the fallback was disabled.
var ErrShardRepairBudget = shard.ErrRepairBudget

// ColorShardedDevices colors g split across devs — shard i on
// devs[i % len(devs)] — and reconciles the parts. opt.K == 0 uses one
// shard per device.
func ColorShardedDevices(ctx context.Context, devs []*Device, g *Graph, a Algorithm, opt ShardOptions, ropt ResilientOptions) (*ShardResult, error) {
	return shard.ColorDevices(ctx, devs, g, a, opt, ropt)
}

// ShardConfig is the shard policy a Server shards by over its pooled
// devices, and a ClusterConfig's Shard field the one a coordinator
// scatters by over its live workers: sharding on or off, the auto-sharded
// count, and the size thresholds that trigger auto-sharding. Every count
// is capped at 16. The zero value enables sharding with defaults.
type ShardConfig = serve.ShardConfig

// HandlerConfig tunes the HTTP surface (request body size limit).
type HandlerConfig = serve.HandlerConfig

// ServeHandler is a Server's HTTP surface — the gcolord wire contract
// (POST /color, /healthz, /metricsz, ...). A Server exposed this way can
// join a Coordinator's fleet as a worker.
func ServeHandler(s *Server) http.Handler { return serve.Handler(s) }

// Uncolored is the sentinel value of an unassigned vertex color.
const Uncolored = color.Uncolored

// Verify checks that colors is a proper coloring of g.
func Verify(g *Graph, colors []int32) error { return color.Verify(g, colors) }

// NumColors returns the number of colors used by a dense coloring.
func NumColors(colors []int32) int { return color.NumColors(colors) }

// Ordering selects the vertex order of the sequential greedy algorithm.
type Ordering = color.Ordering

// Greedy orderings.
const (
	Natural      = color.Natural
	LargestFirst = color.LargestFirst
	SmallestLast = color.SmallestLast
	RandomOrder  = color.RandomOrder
)

// ColorGreedy colors g sequentially with first-fit under the given ordering
// (the CPU baseline).
func ColorGreedy(g *Graph, o Ordering, seed int64) []int32 {
	return color.Greedy(g, o, seed)
}

// ColorJonesPlassmann colors g with the parallel Jones–Plassmann algorithm
// on the host CPU; workers <= 0 uses GOMAXPROCS.
func ColorJonesPlassmann(g *Graph, seed uint32, workers int) []int32 {
	return color.JonesPlassmann(g, seed, workers).Colors
}

// Generators (deterministic; see internal/gen for the full set).

// RMAT generates a scale-free R-MAT graph with 2^scale vertices and about
// edgeFactor*2^scale edges using Graph500 parameters.
func RMAT(scale, edgeFactor int, seed int64) *Graph {
	return gen.RMAT(scale, edgeFactor, gen.Graph500, seed)
}

// RandomGraph generates a uniform Erdős–Rényi G(n,m) graph.
func RandomGraph(n, m int, seed int64) *Graph { return gen.GNM(n, m, seed) }

// Grid2D generates a rows x cols 4-point mesh.
func Grid2D(rows, cols int) *Graph { return gen.Grid2D(rows, cols) }

// ReadGraph parses a graph in edge-list format from r.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes g in edge-list format to w.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Companion irregular workloads (see internal/gpuapps): they share the
// simulator and exhibit the same load-imbalance behaviour as coloring.

// BFSLevels runs a breadth-first search from src on the simulated device
// and returns hop distances (-1 for unreachable vertices).
func BFSLevels(dev *Device, g *Graph, src int32) ([]int32, error) {
	res, err := gpuapps.BFS(dev, g, src)
	if err != nil {
		return nil, err
	}
	return res.Levels, nil
}

// PageRankScores runs pull-style PageRank on the simulated device with
// default damping/tolerance and returns the converged ranks.
func PageRankScores(dev *Device, g *Graph) []float32 {
	return gpuapps.PageRank(dev, g, gpuapps.PageRankOptions{}).Ranks
}

// ComponentLabels labels each vertex with the minimum vertex id of its
// connected component, computed on the simulated device.
func ComponentLabels(dev *Device, g *Graph) []int32 {
	return gpuapps.ConnectedComponents(dev, g).Labels
}

// Serving layer (see internal/serve): the engine behind cmd/gcolord — a
// pool of simulated devices, a bounded priority queue with admission
// control, singleflight request coalescing, and an LRU result cache —
// embeddable in-process without the HTTP surface.

// Server is an in-process coloring service over a device pool.
type Server = serve.Server

// ServeConfig sizes a Server: pool width, device geometry, queue
// capacity, shed threshold, cache entries. One executor runs per device.
type ServeConfig = serve.Config

// ServeRequest is one coloring job: the graph plus per-job policy
// (algorithm, seed, scheduler, resilience knobs, priority, cacheability).
type ServeRequest = serve.Request

// ServeResponse is a completed job: the coloring plus serving evidence
// (cache/coalesce flags, device index, queue wait, execution time).
type ServeResponse = serve.Response

// ServePriority orders jobs in the admission queue.
type ServePriority = serve.Priority

// Admission priorities. Low and Normal work is shed under load; High
// work is only refused when the queue is completely full.
const (
	PriorityLow    = serve.PriorityLow
	PriorityNormal = serve.PriorityNormal
	PriorityHigh   = serve.PriorityHigh
)

// Typed admission failures of a Server, for errors.Is.
var (
	ErrQueueFull    = serve.ErrQueueFull
	ErrShedding     = serve.ErrShedding
	ErrServerClosed = serve.ErrClosed
	// ErrServerDraining wraps ErrServerClosed: new work refused while
	// queued work finishes.
	ErrServerDraining = serve.ErrDraining
	// ErrDeadlineInQueue marks a job whose context expired before any
	// device picked it up; it wraps the context's own error.
	ErrDeadlineInQueue = serve.ErrDeadlineInQueue
)

// DrainSummary reports what happened during a graceful drain.
type DrainSummary = serve.DrainSummary

// DrainTimeoutError is returned by Server.Drain when queued work could
// not finish within the timeout; unfinished jobs are handed back to
// their callers with ErrServerDraining.
type DrainTimeoutError = serve.DrainTimeoutError

// NewServer starts a Server; call Stop to drain and release it.
func NewServer(cfg ServeConfig) *Server { return serve.NewServer(cfg) }

// Durability (see internal/journal): a write-ahead journal makes a Server
// crash-safe — accepted jobs are journaled before they are queued and
// replayed on restart, completed results warm-start the result cache, and
// client Idempotency-Keys dedupe retries across the crash.

// Journal is an append-only, checksummed, segment-rotated write-ahead log.
type Journal = journal.Journal

// JournalOptions tunes segment size, fsync policy, and compaction.
type JournalOptions = journal.Options

// JournalRecovery is what replaying a journal directory found: pending
// accepted jobs to re-execute plus completed results to warm caches from.
// Pass it (with the Journal) into ServeConfig to recover a Server.
type JournalRecovery = journal.Recovery

// JournalReplayStats describes a journal scan: segments read, torn tails
// truncated, corrupt segments skipped, record counts.
type JournalReplayStats = journal.ReplayStats

// JournalStats is a live journal's counters (appends, fsyncs, rotations,
// compactions, live segments).
type JournalStats = journal.Stats

// FsyncMode selects journal durability: per-append, batched group commit,
// or OS-paced.
type FsyncMode = journal.FsyncMode

// Journal fsync modes.
const (
	FsyncBatch  = journal.FsyncBatch
	FsyncAlways = journal.FsyncAlways
	FsyncNone   = journal.FsyncNone
)

// OpenJournal opens (or creates) a journal directory and replays whatever
// it holds. Replay never fails on torn or corrupt records — the damage is
// truncated, counted in the returned recovery's stats, and the journal
// continues in a fresh segment.
func OpenJournal(dir string, opt JournalOptions) (*Journal, *JournalRecovery, error) {
	return journal.Open(dir, opt)
}

// RecoveryInfo reports a recovered Server's warm-start and replay
// progress (the programmatic form of gcolord's GET /recoveryz).
type RecoveryInfo = serve.RecoveryInfo

// Distributed fleet (see internal/cluster): a coordinator fronting many
// gcolord workers — rendezvous-hash routing of whole graphs, edge-balanced
// scatter-gather of large ones with boundary repair at the coordinator,
// per-worker health scores and circuit breakers, bounded re-dispatch on
// mid-job worker failure, and the same journal-backed crash safety as a
// single Server.

// Coordinator fronts a fleet of gcolord workers.
type Coordinator = cluster.Coordinator

// ClusterConfig sizes a Coordinator: static peers, membership probing,
// scatter thresholds, cache size, journaling. Failover budgets, member
// expiry and the admission cap are fixed.
type ClusterConfig = cluster.Config

// ClusterStats snapshots a Coordinator: job/routing/failover counters,
// cache state, and per-worker membership detail.
type ClusterStats = cluster.Stats

// ClusterMemberInfo is one worker's membership view (address, liveness,
// health score, breaker state, job counts).
type ClusterMemberInfo = cluster.MemberInfo

// ClusterWorkerError is a typed failure of one worker call; Retryable
// reports whether the coordinator may fail the job over.
type ClusterWorkerError = cluster.WorkerError

// ClusterShardError reports a shard sub-job that exhausted its bounded
// re-dispatch attempts during scatter-gather.
type ClusterShardError = cluster.ShardError

// ErrNoClusterWorkers is returned when no live, non-excluded worker
// remains for a job.
var ErrNoClusterWorkers = cluster.ErrNoWorkers

// NewCoordinator starts a Coordinator; call Close to stop its membership
// probing. Workers are plain gcolord servers — no special build.
func NewCoordinator(cfg ClusterConfig) *Coordinator { return cluster.NewCoordinator(cfg) }

// ClusterHandler is the Coordinator's HTTP surface: the same POST /color
// contract as a single gcolord plus /clusterz, /cluster/join, /metricsz.
func ClusterHandler(c *Coordinator) http.Handler { return cluster.Handler(c) }

// NewClusterWorkerClient returns the pooled keep-alive HTTP client a
// Coordinator uses for worker calls, sized for conc in-flight jobs.
func NewClusterWorkerClient(timeout time.Duration, conc int) *http.Client {
	return cluster.NewWorkerClient(timeout, conc)
}

// JoinCluster announces a worker to a coordinator and keeps re-announcing
// every interval until ctx is canceled — the worker side of dynamic
// membership. A nil client uses http.DefaultClient.
func JoinCluster(ctx context.Context, client *http.Client, coordinatorURL, advertiseAddr string, interval time.Duration) error {
	return cluster.JoinLoop(ctx, client, coordinatorURL, advertiseAddr, interval)
}

// ParseGraphSpec builds a deterministic synthetic graph from a compact
// spec like "rmat:14:16:1", "gnm:10000:50000", or "grid:64:64".
func ParseGraphSpec(spec string) (*Graph, error) { return serve.ParseGraphSpec(spec) }

// Fingerprint returns g's stable 64-bit content fingerprint: equal for
// any two graphs with identical adjacency structure regardless of edge
// insertion order, across runs and platforms. It keys the result cache.
func Fingerprint(g *Graph) uint64 { return g.Fingerprint() }

// FingerprintString formats a fingerprint as fixed-width hex.
func FingerprintString(fp uint64) string { return graph.FingerprintString(fp) }

// RunExperiment executes one of the paper's reconstructed experiments
// ("T1", "F1".."F9", ablations "A1".."A6", extensions "X1".."X5") at full
// scale and writes its tables to w.
func RunExperiment(id string, w io.Writer) error {
	tables, err := exp.Run(id, exp.Config{Scale: exp.Full})
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}
