package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
	"gcolor/internal/lru"
	"gcolor/internal/metrics"
	"gcolor/internal/shard"
)

// ErrDraining reports a submission to a server that is draining. It wraps
// ErrClosed, so callers that only distinguish "up" from "going away" keep
// working with errors.Is(err, ErrClosed).
var ErrDraining = fmt.Errorf("serve: draining: %w", ErrClosed)

// ShardConfig is the shard policy (internal/shard): when a request is
// split into edge-balanced shards colored in parallel on separate pool
// devices and reconciled by the bounded boundary repair loop. Its zero
// value takes the documented defaults.
type ShardConfig = shard.Policy

// Config sizes a Server. Zero values take the documented defaults.
type Config struct {
	// Devices is the pool size (default 4). Ignored when DeviceConfigs is
	// set.
	Devices int
	// Device is the config template applied to every pool device.
	Device DeviceConfig
	// DeviceConfigs, when non-empty, builds a heterogeneous pool with one
	// device per entry, overriding Devices/Device.
	DeviceConfigs []DeviceConfig
	// QueueCapacity bounds the admission queue (default 256).
	QueueCapacity int
	// ShedFraction is the queue occupancy fraction at which sub-high
	// priority work is shed (default 0.75; >= 1 disables early shedding).
	ShedFraction float64
	// CacheEntries sizes the result LRU (default 512; negative disables
	// caching).
	CacheEntries int
	// Shard tunes sharded scatter-gather execution.
	Shard ShardConfig

	// Journal, when set, makes the server crash-safe: every replayable
	// request is journaled before enqueue and every finished job journals
	// a completion record. The server registers itself as the journal's
	// compaction source; the caller owns journal.Close (after Drain).
	Journal *journal.Journal
	// Recovery, when set, is the replayed state from journal.Open: DispOK
	// completions warm-start the result cache and idempotency map
	// synchronously in NewServer, and pending accepts are re-submitted in
	// the background (RecoveryDone closes when the replay settles).
	Recovery *journal.Recovery
	// ReplayParallelism bounds concurrent recovery re-submissions
	// (default 4): recovery shares the queue with live traffic and must
	// not monopolize it.
	ReplayParallelism int
}

func (c Config) withDefaults() Config {
	if len(c.DeviceConfigs) == 0 {
		if c.Devices < 1 {
			c.Devices = 4
		}
	} else {
		c.Devices = len(c.DeviceConfigs)
	}
	if c.QueueCapacity < 1 {
		c.QueueCapacity = 256
	}
	if c.ShedFraction == 0 {
		c.ShedFraction = 0.75
	}
	switch {
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	case c.CacheEntries == 0:
		c.CacheEntries = 512
	}
	if c.ReplayParallelism < 1 {
		c.ReplayParallelism = 4
	}
	return c
}

// Server is the concurrent coloring service: the admission front door
// (idempotency, result cache, coalescing, journal) in front, admission
// queue and device pool behind, and the self-healing layer
// (health-weighted leases, circuit breakers, hedged re-dispatch, graceful
// drain) wrapped around the lot. Create with NewServer; it is immediately
// serving. All methods are safe for concurrent use.
type Server struct {
	cfg      Config
	front    *Admission
	pool     *DevicePool
	queue    *jobQueue
	versions versionStore
	reg      *metrics.Registry
	hedge    *hedgeTracker
	// frontier is the delta recolor budget (frontierFraction).
	frontier float64

	// warmVersions counts the resident versions rebuilt at startup.
	warmVersions int64

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started time.Time

	drainOnce    sync.Once
	drainDone    chan struct{}
	drainSum     DrainSummary
	drainReqOnce sync.Once
	drainReq     chan struct{}
}

// NewServer builds a serving stack from cfg and starts its workers.
func NewServer(cfg Config) *Server { return newServer(cfg, versionEntries, frontierFraction) }

// newServer is NewServer with the incremental engine's version store
// capacity and frontier budget given, sized before warm start pins any
// version.
func newServer(cfg Config, versions int, frontier float64) *Server {
	cfg = cfg.withDefaults()
	var pool *DevicePool
	if len(cfg.DeviceConfigs) > 0 {
		pool = NewDevicePool(cfg.DeviceConfigs)
	} else {
		pool = UniformPool(cfg.Devices, cfg.Device)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		pool:      pool,
		queue:     newJobQueue(cfg.QueueCapacity, cfg.ShedFraction),
		versions:  versionStore{lru.New[uint64, *versionEntry](versions)},
		reg:       metrics.NewRegistry(),
		hedge:     newHedgeTracker(hedgeMinSamples, hedgeFloor),
		frontier:  frontier,
		baseCtx:   ctx,
		cancel:    cancel,
		started:   time.Now(),
		drainDone: make(chan struct{}),
		drainReq:  make(chan struct{}),
	}
	s.front = newAdmission(cfg, s.reg, ctx, s.writeVersions)
	s.front.requests = s.reg.Counter("requests_total")
	// Pre-register every metric so /metricsz reports zeros rather than
	// omitting counters that have not fired yet (the front door registers
	// its own).
	for _, name := range []string{
		"completed_total", "failed_total", "recovered_total",
		"shed_total", "queue_full_total", "deadline_expired_total", "shed_expired",
		"hedges_total", "hedge_wins_total", "hedge_losses_total", "hedge_skipped_total",
		"attempts_canceled_total", "drain_handoff_total",
		"shard_jobs_total", "shard_retries_total", "shard_conflicts_total",
		"shard_repair_rounds_total", "shard_recolored_total", "shard_fallback_total",
		"delta_requests_total", "delta_hits", "delta_fallbacks_total",
		"delta_unknown_base_total",
	} {
		s.reg.Counter(name)
	}
	s.reg.Gauge("queue_depth")
	s.reg.Gauge("devices_busy")
	s.reg.Histogram("wait_us")
	s.reg.Histogram("exec_us")
	s.reg.Histogram("delta_frontier_size")
	// One executor goroutine per pooled device.
	for i := 0; i < pool.Size(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Warm-start happens synchronously (cheap, and callers expect a warm
	// cache from the moment NewServer returns); pending-job replay runs in
	// the background behind RecoveryDone. Versions warm first: a replayed
	// delta needs its base resident.
	s.applyVersions(cfg.Recovery)
	s.front.Recover(cfg.Recovery, func(ctx context.Context, _ *ColorRequest, req *Request) (*Response, error) {
		return s.Submit(ctx, req)
	})
	return s
}

// Metrics returns the server's registry (shared, live).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Pool returns the device pool (for inspection; devices remain owned by
// the server's leases).
func (s *Server) Pool() *DevicePool { return s.pool }

// Uptime returns the time since the server started.
func (s *Server) Uptime() time.Duration { return time.Since(s.started) }

// Stop drains the queue and shuts the workers down with no deadline.
// In-flight and queued jobs complete; new Submit calls fail with a
// closed/draining error.
func (s *Server) Stop() { _, _ = s.Drain(0) }

// DrainSummary reports what happened to the server's work during a drain.
type DrainSummary struct {
	// Finished is the number of jobs that completed successfully during
	// the drain; Failed the jobs that finished with an error (including
	// in-flight jobs canceled at the drain deadline).
	Finished int64 `json:"finished"`
	Failed   int64 `json:"failed"`
	// HandedOff is the number of still-queued jobs returned to their
	// callers unrun (ErrDraining) when the drain deadline expired.
	HandedOff int64 `json:"handed_off"`
	// TimedOut reports that the drain deadline expired before the queue
	// and devices went idle.
	TimedOut bool `json:"timed_out"`
	// Elapsed is the wall time the drain took.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// DrainTimeoutError is the typed failure of a drain that exceeded its
// deadline; it carries the summary of what did and did not finish.
type DrainTimeoutError struct {
	Timeout time.Duration
	Summary DrainSummary
}

func (e *DrainTimeoutError) Error() string {
	return fmt.Sprintf("serve: drain exceeded %v (finished %d, handed off %d, failed %d)",
		e.Timeout, e.Summary.Finished, e.Summary.HandedOff, e.Summary.Failed)
}

// RequestDrain records an external drain request (the POST /drainz path).
// It does not itself drain: the daemon owning the process observes
// DrainRequested and runs Drain with its configured timeout.
func (s *Server) RequestDrain() {
	s.drainReqOnce.Do(func() { close(s.drainReq) })
}

// DrainRequested is closed once a drain has been requested via
// RequestDrain.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainReq }

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool { return s.front.Draining() }

// Drain gracefully shuts the server down: admission stops immediately
// (Submit fails with ErrDraining), queued and in-flight jobs run to
// completion, and the summary reports what finished. With timeout > 0, a
// drain still busy at the deadline hands queued jobs back to their
// callers (ErrDraining — never silently dropped), cancels in-flight work
// at the next iteration boundary, and returns a *DrainTimeoutError.
// Subsequent calls wait for the first drain and return its summary.
func (s *Server) Drain(timeout time.Duration) (DrainSummary, error) {
	s.drainOnce.Do(func() {
		defer close(s.drainDone)
		s.front.StartDrain()
		start := time.Now()
		completed0 := s.reg.Counter("completed_total").Value()
		failed0 := s.reg.Counter("failed_total").Value()
		s.queue.close()
		done := make(chan struct{})
		go func() { s.wg.Wait(); close(done) }()
		var timedOut bool
		var handed int64
		if timeout > 0 {
			t := time.NewTimer(timeout)
			select {
			case <-done:
				t.Stop()
			case <-t.C:
				timedOut = true
				// Hand still-queued jobs back to their callers unrun, then
				// cancel in-flight attempts; the resilient driver honours
				// the context at iteration boundaries, so the workers
				// finish promptly and wg drains.
				handed = int64(s.queue.flush(func(j *job) {
					s.reg.Counter("drain_handoff_total").Inc()
					s.front.finish(j.fl, nil, fmt.Errorf("serve: handed off during drain: %w", ErrDraining))
				}))
				s.cancel()
				<-done
			}
		} else {
			<-done
		}
		s.cancel()
		s.drainSum = DrainSummary{
			Finished:  s.reg.Counter("completed_total").Value() - completed0,
			Failed:    s.reg.Counter("failed_total").Value() - failed0,
			HandedOff: handed,
			TimedOut:  timedOut,
			Elapsed:   time.Since(start),
		}
	})
	<-s.drainDone
	if s.drainSum.TimedOut {
		return s.drainSum, &DrainTimeoutError{Timeout: timeout, Summary: s.drainSum}
	}
	return s.drainSum, nil
}

// Submit serves one request through the admission front door —
// idempotent replay, then the result cache, then coalescing — and on a
// miss the admission queue and a pooled device. It returns a verified
// coloring or a typed error (ErrQueueFull, ErrShedding, ErrClosed,
// ErrDraining, *UnknownBaseError, a context error, or a gpucolor failure).
func (s *Server) Submit(ctx context.Context, req *Request) (*Response, error) {
	if req == nil {
		return nil, errors.New("serve: request has no graph")
	}
	if req.Delta != nil || req.BaseFingerprint != 0 {
		return s.submitDelta(ctx, req)
	}
	if req.Graph == nil {
		return nil, errors.New("serve: request has no graph")
	}
	s.reg.Counter("requests_total").Inc()
	if res, ok, _ := s.front.replay(req, req.Graph); ok {
		return res, nil
	}
	fp := req.Fingerprint
	if fp == 0 {
		fp = req.Graph.Fingerprint()
	}
	shards := s.effectiveShards(req)
	res, err := s.front.serve(ctx, req, keyOf(req, fp, shards), s.enqueuer(ctx, fp, shards))
	if err == nil && req.Resident {
		s.versions.put(fp, req.Graph, res.Colors, 0, nil)
	}
	return res, err
}

// effectiveShards resolves a request's Shards knob against the server's
// shard policy, one shard per pooled device.
func (s *Server) effectiveShards(req *Request) int {
	return s.cfg.Shard.Count(req.Graph, req.Shards, s.pool.Size)
}

// enqueuer returns how a Server runs an admitted miss: push it onto the
// admission queue, where a worker picks it up and finishes its flight. A
// refused push returns the typed admission error.
func (s *Server) enqueuer(ctx context.Context, fp uint64, shards int) func(*flight) error {
	return func(fl *flight) error {
		if err := s.queue.push(&job{ctx: ctx, req: fl.req, fp: fp, shards: shards, fl: fl}); err != nil {
			switch {
			case errors.Is(err, ErrQueueFull):
				s.reg.Counter("queue_full_total").Inc()
			case errors.Is(err, ErrShedding):
				s.reg.Counter("shed_total").Inc()
			}
			return err
		}
		s.reg.Gauge("queue_depth").Set(int64(s.queue.depth()))
		return nil
	}
}

// worker is one executor: pop a live job, lease a device, run the
// resilient driver (hedging when the run crosses the tail threshold), and
// publish to cache and flight.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, err := s.queue.pop(s.baseCtx, s.expireJob)
		if err != nil {
			return
		}
		s.reg.Gauge("queue_depth").Set(int64(s.queue.depth()))
		wait := time.Since(j.enqueued)
		s.reg.Histogram("wait_us").Add(wait.Microseconds())
		s.runJob(j, wait)
	}
}

// expireJob fails a job whose deadline passed while it was queued; it is
// called from pop, before any device is involved, and completes the job
// with ErrDeadlineInQueue exactly once (the flight's once-guard backs the
// queue's single-exit invariant).
func (s *Server) expireJob(j *job) {
	s.reg.Counter("deadline_expired_total").Inc()
	s.reg.Counter("shed_expired").Inc()
	s.front.finish(j.fl, nil, fmt.Errorf("%w: %w", ErrDeadlineInQueue, j.ctx.Err()))
}

// attemptResult is the outcome of one device attempt (primary or hedge).
type attemptResult struct {
	out    *gpucolor.Outcome
	err    error
	device int
	exec   time.Duration
	hedge  bool
}

// acquireError marks a dispatch that failed before any device attempt ran:
// the pool acquire itself gave up (deadline, cancellation, shutdown). It
// unwraps to the pool's error so errors.Is keeps matching, and it lets the
// metrics layer keep its historical distinction — acquire failures count
// as deadline expiry, not device failure.
type acquireError struct{ err error }

func (e *acquireError) Error() string { return e.err.Error() }
func (e *acquireError) Unwrap() error { return e.err }

// attemptFailure marks a dispatch whose device attempts all failed; it
// carries the primary's device index so a sharded retry can exclude it.
type attemptFailure struct {
	device int
	err    error
}

func (e *attemptFailure) Error() string { return e.err.Error() }
func (e *attemptFailure) Unwrap() error { return e.err }

// dispatchResult is a winning dispatch: the verified outcome plus the
// device and timing evidence.
type dispatchResult struct {
	out    *gpucolor.Outcome
	device int
	exec   time.Duration
	hedged bool
}

// dispatch runs one graph on one leased device: a primary attempt on a
// health-weighted lease (never the excluded device, when exclude >= 0),
// plus — if the run crosses the P99-derived hedge threshold — a
// speculative second attempt on another healthy device. The first
// successful attempt wins; the loser is canceled through its context and
// its lease is released by its own goroutine. If every launched attempt
// fails, the primary's error is returned as an *attemptFailure.
func (s *Server) dispatch(ctx context.Context, j *job, g *graph.Graph, seed uint32, exclude int) (*dispatchResult, error) {
	lease, err := s.pool.acquire(ctx, exclude)
	if err != nil {
		return nil, &acquireError{err: err}
	}

	resCh := make(chan attemptResult, 2)
	primCtx, cancelPrim := context.WithCancel(ctx)
	defer cancelPrim()
	s.wg.Add(1)
	go s.attempt(primCtx, j, g, seed, lease, false, resCh)

	// Arm the hedge timer only when a second device exists and the tail
	// estimate has warmed up. Probe leases are never hedged: the probe must
	// answer for itself.
	var hedgeC <-chan time.Time
	if s.pool.Size() > 1 && !lease.Probe() {
		if thr, ok := s.hedge.threshold(); ok {
			t := time.NewTimer(thr)
			defer t.Stop()
			hedgeC = t.C
		}
	}

	var cancelHedge context.CancelFunc
	launched := 1
	hedged := false
	var winner *attemptResult
	var firstErr *attemptResult
	for winner == nil {
		select {
		case r := <-resCh:
			if r.err == nil {
				winner = &r
			} else {
				if firstErr == nil || !r.hedge {
					firstErr = &r
				}
				launched--
				if launched == 0 {
					// Every attempt failed; report the primary's error.
					goto decided
				}
			}
		case <-hedgeC:
			hedgeC = nil
			hl, ok := s.pool.TryAcquireHealthy(lease.Index())
			if !ok {
				s.reg.Counter("hedge_skipped_total").Inc()
				continue
			}
			hedged = true
			s.reg.Counter("hedges_total").Inc()
			hctx, hcancel := context.WithCancel(ctx)
			cancelHedge = hcancel
			launched++
			s.wg.Add(1)
			go s.attempt(hctx, j, g, seed, hl, true, resCh)
		}
	}
decided:
	if winner != nil && hedged {
		// Cancel the loser; its goroutine observes the cancellation as a
		// neutral outcome, releases its lease, and drains into the
		// buffered channel.
		if winner.hedge {
			s.reg.Counter("hedge_wins_total").Inc()
			cancelPrim()
		} else {
			s.reg.Counter("hedge_losses_total").Inc()
			if cancelHedge != nil {
				cancelHedge()
			}
		}
	}
	if cancelHedge != nil {
		defer cancelHedge()
	}

	if winner == nil {
		return nil, &attemptFailure{device: firstErr.device, err: firstErr.err}
	}
	return &dispatchResult{out: winner.out, device: winner.device, exec: winner.exec, hedged: hedged}, nil
}

// failJob finishes a job with an error, counting it under the historical
// metric split: acquire failures (no device ever ran) land on
// deadline_expired_total, device failures on failed_total.
func (s *Server) failJob(j *job, err error) {
	var aq *acquireError
	if errors.As(err, &aq) {
		s.reg.Counter("deadline_expired_total").Inc()
	} else {
		s.reg.Counter("failed_total").Inc()
	}
	s.front.finish(j.fl, nil, err)
}

// runJob executes one admitted job: single-device dispatch, or — for jobs
// admitted with an effective shard count above one — the scatter-gather
// sharded path.
func (s *Server) runJob(j *job, wait time.Duration) {
	// Attempts answer to the request's context and to server shutdown:
	// the drain-deadline path cancels baseCtx to reel in-flight work in.
	ctx, cancelAll := context.WithCancel(j.ctx)
	defer cancelAll()
	stopAfter := context.AfterFunc(s.baseCtx, cancelAll)
	defer stopAfter()

	if j.shards > 1 {
		s.runSharded(ctx, j, wait)
		return
	}

	d, err := s.dispatch(ctx, j, j.req.Graph, j.req.Seed, -1)
	if err != nil {
		s.failJob(j, err)
		return
	}
	res := d.response(j.fp)
	res.Wait = wait
	s.finishJob(j, &res)
}

// response is the reply of one dispatch: its outcome with the device and
// timing evidence.
func (d *dispatchResult) response(fp uint64) Response {
	out := d.out
	return Response{
		Fingerprint: fp,
		Colors:      out.Colors,
		NumColors:   out.NumColors,
		Cycles:      out.Cycles,
		Iterations:  out.Iterations,
		Recovery:    out.Recovery,
		Attempts:    out.Attempts,
		Repaired:    out.Repaired,
		Hedged:      d.hedged,
		Shards:      1,
		Device:      d.device,
		Exec:        d.exec,
	}
}

// finishJob finishes a job that produced res.
func (s *Server) finishJob(j *job, res *Response) {
	s.reg.Counter("completed_total").Inc()
	if res.Recovery != gpucolor.RecoveryNone {
		s.reg.Counter("recovered_total").Inc()
	}
	s.front.finish(j.fl, res, nil)
}

// dispatchShard colors one shard's subgraph, retrying once on a different
// device when the first dispatch failed on-device — the shard-level
// re-dispatch that lets a sharded job survive one sick device without
// burning the whole merge.
func (s *Server) dispatchShard(ctx context.Context, j *job, i int, sub *graph.Graph) (*dispatchResult, error) {
	seed := j.req.Seed + uint32(i) // decorrelate per-shard priorities
	d, err := s.dispatch(ctx, j, sub, seed, -1)
	if err == nil {
		return d, nil
	}
	var af *attemptFailure
	if ctx.Err() == nil && errors.As(err, &af) && s.pool.Size() > 1 {
		s.reg.Counter("shard_retries_total").Inc()
		return s.dispatch(ctx, j, sub, seed, af.device)
	}
	return nil, err
}

// runSharded executes one job as a scatter-gather through
// shard.ColorSharded: one dispatchShard per shard (each with its own
// lease, hedging, and health accounting), then one aggregated response.
func (s *Server) runSharded(ctx context.Context, j *job, wait time.Duration) {
	s.reg.Counter("shard_jobs_total").Inc()
	outs := make([]Response, j.shards)
	sr, err := shard.ColorSharded(ctx, j.req.Graph,
		shard.Options{K: j.shards, Seed: j.req.Seed, NoFallback: j.req.NoCPUFallback},
		func(ctx context.Context, i, k int, sub *graph.Graph) ([]int32, int64, error) {
			d, err := s.dispatchShard(ctx, j, i, sub)
			if err != nil {
				return nil, 0, fmt.Errorf("serve: shard %d/%d: %w", i, k, err)
			}
			outs[i] = d.response(0)
			return d.out.Colors, d.out.Cycles, nil
		})
	if err != nil {
		s.failJob(j, err)
		return
	}
	st := sr.Repair
	s.reg.Counter("shard_conflicts_total").Add(int64(st.Conflicts))
	s.reg.Counter("shard_repair_rounds_total").Add(int64(st.Rounds))
	s.reg.Counter("shard_recolored_total").Add(int64(st.Recolored))
	if st.Fallback {
		s.reg.Counter("shard_fallback_total").Inc()
	}
	res := ShardedResponse(j.fp, sr, outs)
	res.Wait = wait
	s.finishJob(j, res)
}

// ShardedResponse is the reply of a job colored as shards, in process or
// across a fleet: sr's merged coloring and boundary-repair evidence,
// folded with the shards' own replies. Attempts and repairs are summed,
// recovery is the worst rung any shard needed (cpu when the boundary
// repair fell back), the job is hedged if any shard was, and iterations
// and exec time are the most of any shard, the shards having run in
// parallel. Cycles is the shards' sum, the serial-equivalent work. The
// caller adds what only it knows, such as the queue wait.
func ShardedResponse(fp uint64, sr *shard.Result, shards []Response) *Response {
	res := &Response{
		Fingerprint:       fp,
		Colors:            sr.Colors,
		NumColors:         sr.NumColors,
		Cycles:            sr.CyclesTotal,
		Shards:            sr.K,
		ShardConflicts:    sr.Repair.Conflicts,
		ShardRepairRounds: sr.Repair.Rounds,
		ShardRecolored:    sr.Repair.Recolored,
		Device:            -1, // the job spanned several devices or workers
	}
	for i := range shards {
		sh := &shards[i]
		res.Iterations = max(res.Iterations, sh.Iterations)
		res.Attempts += sh.Attempts
		res.Repaired += sh.Repaired
		res.Recovery = max(res.Recovery, sh.Recovery)
		res.Hedged = res.Hedged || sh.Hedged
		res.Exec = max(res.Exec, sh.Exec)
	}
	if sr.Repair.Fallback {
		res.Recovery = gpucolor.RecoveryCPU
	}
	return res
}

// attempt runs one device attempt: execute the resilient ladder on the
// lease's runner, feed the typed outcome into the device's health score
// and breaker, release the lease, and report back. The lease is owned by
// this goroutine from the moment attempt is launched.
func (s *Server) attempt(ctx context.Context, j *job, g *graph.Graph, seed uint32, lease *Lease, hedge bool, resCh chan<- attemptResult) {
	defer s.wg.Done()
	busy := s.reg.Gauge("devices_busy")
	busy.Add(1)
	dev := lease.Device()
	dev.Policy = j.req.Policy
	var faultsBefore int64
	if dev.Fault != nil {
		faultsBefore = dev.Fault.Stats().Injected()
	}
	opt := gpucolor.ResilientOptions{
		Options: gpucolor.Options{
			Seed:            seed,
			HybridThreshold: j.req.HybridThreshold,
			Fused:           j.req.Fused,
		},
		CycleBudget:   j.req.CycleBudget,
		MaxRetries:    j.req.MaxRetries,
		NoCPUFallback: j.req.NoCPUFallback,
	}
	start := time.Now()
	// The lease's persistent runner keeps the device-arena buffers bound
	// across jobs: same results as the transient path, no per-request
	// allocations on the device side.
	out, err := lease.Runner().ColorContext(ctx, g, j.req.Algorithm, opt)
	exec := time.Since(start)
	var faultsDelta int64
	if dev.Fault != nil {
		faultsDelta = dev.Fault.Stats().Injected() - faultsBefore
	}
	kind := gpucolor.Classify(out, err)
	lease.Observe(kind, exec, faultsDelta)
	busy.Add(-1)
	lease.Release()
	s.reg.Histogram("exec_us").Add(exec.Microseconds())
	if err == nil {
		s.hedge.observe(exec)
	}
	if kind == gpucolor.OutcomeCanceled {
		s.reg.Counter("attempts_canceled_total").Inc()
	}
	resCh <- attemptResult{out: out, err: err, device: lease.Index(), exec: exec, hedge: hedge}
}

// DeviceStat is the per-device slice of Stats: health score, breaker
// state, and lifetime job count.
type DeviceStat struct {
	Health  float64
	Breaker string
	Jobs    int64
}

// Stats is a point-in-time serving summary, the programmatic form of
// /metricsz.
type Stats struct {
	Uptime          time.Duration
	Requests        int64
	Completed       int64
	Failed          int64
	CacheHits       int64
	CacheMisses     int64
	CacheHitRate    float64 // hits / (hits + misses); 0 when no lookups
	CacheEntries    int     // results currently resident in the LRU
	CacheEvictions  int64   // entries pushed out by capacity since start
	IdemHits        int64   // requests answered from the idempotency map
	IdemEntries     int     // idempotency keys currently resident
	MemoHits        int64   // requests answered from the request memo, before any decode
	MemoEntries     int     // uploads the request memo currently names
	Coalesced       int64
	Shed            int64 // ErrShedding rejections
	QueueFull       int64 // ErrQueueFull rejections
	DeadlineExpired int64
	ShedExpired     int64 // deadline expired while still queued
	QueueDepth      int64
	Devices         int
	Utilization     float64 // fraction of device-time leased since start
	WaitP50us       int64
	WaitP99us       int64
	ExecP50us       int64
	ExecP99us       int64

	// Sharded scatter-gather.
	ShardJobs      int64 // jobs executed as K-shard scatter-gathers
	ShardRetries   int64 // shard dispatches retried on another device
	ShardConflicts int64 // monochromatic cut edges found at merge barriers
	ShardRecolored int64 // vertices recolored by boundary repair
	ShardFallbacks int64 // sharded jobs that degraded to the CPU greedy

	// BatchedJobs is always zero: every job runs as its own launch. The
	// field stays for readers that still report it.
	BatchedJobs        int64
	WireBinaryRequests int64 // POST /color bodies in the binary CSR wire format

	// Incremental (delta) coloring.
	DeltaRequests    int64 // delta requests received
	DeltaHits        int64 // deltas served by frontier recolor alone
	DeltaFallbacks   int64 // deltas recolored from scratch (frontier over budget)
	DeltaUnknownBase int64 // deltas refused: base version not resident
	VersionsResident int   // graph versions currently pinned

	// Self-healing.
	Hedges        int64 // hedged re-dispatches launched
	HedgeWins     int64 // hedge attempt beat the primary
	HedgeLosses   int64 // primary finished first after a hedge launched
	Quarantines   int64 // breaker trips since start
	Readmitted    int64 // completed probations
	Probes        int64 // probe leases issued
	ProbeFailures int64 // probes that re-opened a breaker
	Quarantined   int   // devices currently not breaker-closed
	Draining      bool
	DrainHandoff  int64 // jobs handed back to callers at a drain deadline
	PerDevice     []DeviceStat
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	snap := s.reg.Snapshot()
	memoHits, memoEntries := s.front.MemoStats()
	st := Stats{
		Uptime:          s.Uptime(),
		Requests:        snap["requests_total"],
		Completed:       snap["completed_total"],
		Failed:          snap["failed_total"],
		CacheHits:       snap["cache_hits"],
		CacheMisses:     snap["cache_misses"],
		CacheEntries:    s.front.cache.Len(),
		CacheEvictions:  s.front.cache.Evictions(),
		IdemHits:        snap["idem_hits_total"],
		IdemEntries:     s.front.idem.Len(),
		MemoHits:        memoHits,
		MemoEntries:     memoEntries,
		Coalesced:       snap["coalesced_total"],
		Shed:            snap["shed_total"],
		QueueFull:       snap["queue_full_total"],
		DeadlineExpired: snap["deadline_expired_total"],
		ShedExpired:     snap["shed_expired"],
		QueueDepth:      snap["queue_depth"],
		Devices:         s.pool.Size(),
		Utilization:     s.pool.Utilization(s.Uptime()),
		WaitP50us:       s.reg.Histogram("wait_us").Quantile(0.50),
		WaitP99us:       s.reg.Histogram("wait_us").Quantile(0.99),
		ExecP50us:       s.reg.Histogram("exec_us").Quantile(0.50),
		ExecP99us:       s.reg.Histogram("exec_us").Quantile(0.99),
		ShardJobs:       snap["shard_jobs_total"],
		ShardRetries:    snap["shard_retries_total"],
		ShardConflicts:  snap["shard_conflicts_total"],
		ShardRecolored:  snap["shard_recolored_total"],
		ShardFallbacks:  snap["shard_fallback_total"],

		WireBinaryRequests: snap["wire_binary_requests_total"],
		DeltaRequests:      snap["delta_requests_total"],
		DeltaHits:          snap["delta_hits"],
		DeltaFallbacks:     snap["delta_fallbacks_total"],
		DeltaUnknownBase:   snap["delta_unknown_base_total"],
		VersionsResident:   s.versions.Len(),
		Hedges:             snap["hedges_total"],
		HedgeWins:          snap["hedge_wins_total"],
		HedgeLosses:        snap["hedge_losses_total"],
		Quarantines:        s.pool.QuarantineCount(),
		Readmitted:         s.pool.ReadmitCount(),
		Probes:             s.pool.ProbeCount(),
		ProbeFailures:      s.pool.ProbeFailCount(),
		Quarantined:        s.pool.Quarantined(),
		Draining:           s.Draining(),
		DrainHandoff:       snap["drain_handoff_total"],
	}
	st.PerDevice = make([]DeviceStat, s.pool.Size())
	for i := range st.PerDevice {
		st.PerDevice[i] = DeviceStat{
			Health:  s.pool.HealthScore(i),
			Breaker: s.pool.BreakerState(i).String(),
			Jobs:    s.pool.Jobs(i),
		}
	}
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(lookups)
	}
	return st
}
