package cluster

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
	"gcolor/internal/serve"
)

// Coordinator is the fleet's front door: it owns no devices, only the
// worker registry, the merged-result cache, the idempotency map, and —
// when configured — the write-ahead journal. One Coordinator serves many
// concurrent Submit calls.
type Coordinator struct {
	cfg      Config
	epoch    uint64 // fencing epoch, immutable after construction (0 = unfenced)
	reg      *registry
	cache    *resultCache
	idem     *idemCache
	owners   *ownerTable
	specs    *specMemo
	client   *http.Client
	hbClient *http.Client // control-plane client (header-timeout bounded)
	jnl      *journal.Journal

	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once
	inflight  atomic.Int64

	stopHB chan struct{}
	hbWG   sync.WaitGroup

	jobs             atomic.Int64 // submitted jobs (post idem/cache)
	deltaJobs        atomic.Int64 // delta submissions routed to version owners
	deltaOwnerHits   atomic.Int64 // delta routes that found an owner hint
	deltaOwnerMisses atomic.Int64 // delta routes that fell back to rendezvous
	routed           atomic.Int64 // jobs forwarded whole
	scattered        atomic.Int64 // jobs scatter-gathered
	failed           atomic.Int64
	shed             atomic.Int64 // submissions refused by the admission cap
	redispatches     atomic.Int64 // shard re-dispatches after a worker failure
	routeFailovers   atomic.Int64 // whole-graph failovers after a worker failure
	joins            atomic.Int64

	// Epoch fencing evidence: fenced flips when a worker (or a worker's
	// join/healthz) proves a newer epoch exists — this coordinator is
	// deposed and drains itself rather than fighting the new primary.
	fenced       atomic.Bool
	staleRejects atomic.Int64 // dispatches a worker refused as stale

	// Takeover provenance, set by Standby on the coordinator it builds.
	takeoverMS   atomic.Int64 // detect→serving latency of the takeover (0 = not a takeover)
	recReplayErr atomic.Int64 // replayed pending jobs that failed

	recWarmCache atomic.Int64
	recWarmIdem  atomic.Int64
	recPending   atomic.Int64
	recReplayed  atomic.Int64
	recDone      atomic.Bool
}

// NewCoordinator builds a coordinator, registers the static peers, starts
// the heartbeat prober (unless disabled), and — when Config.Recovery is
// set — warm-starts the caches from replayed completions and re-dispatches
// the journal's pending jobs in the background.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		epoch:   cfg.Epoch,
		reg:     newRegistry(cfg),
		cache:   newResultCache(cfg.CacheEntries),
		idem:    newIdemCache(cfg.IdemEntries),
		owners:  newOwnerTable(0),
		specs:   newSpecMemo(64),
		client:  cfg.Client,
		jnl:     cfg.Journal,
		drainCh: make(chan struct{}),
		stopHB:  make(chan struct{}),
	}
	c.hbClient = newControlClient(c.probeTimeout())
	for _, p := range cfg.Peers {
		if p = strings.TrimSpace(p); p != "" {
			c.reg.upsert(normalizeAddr(p), "", true)
		}
	}
	if cfg.HeartbeatInterval > 0 {
		c.hbWG.Add(1)
		go c.heartbeatLoop()
	}
	if cfg.Recovery != nil {
		c.applyRecovery(cfg.Recovery)
	} else {
		c.recDone.Store(true)
	}
	return c
}

// normalizeAddr turns "host:port" into a full base URL and strips any
// trailing slash so registry keys are canonical.
func normalizeAddr(a string) string {
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	return strings.TrimRight(a, "/")
}

// Join registers (or refreshes) a worker and returns the join reply. A
// join carrying an epoch above this coordinator's proves a newer primary
// exists: the worker is NOT registered, the coordinator fences itself, and
// the typed *StaleEpochError tells the worker to keep its allegiance.
func (c *Coordinator) Join(jr JoinRequest) (JoinResponse, error) {
	if c.epoch > 0 && jr.Epoch > c.epoch {
		c.fenceSelf()
		c.staleRejects.Add(1)
		return JoinResponse{}, &StaleEpochError{Got: c.epoch, Current: jr.Epoch}
	}
	m := c.reg.upsert(normalizeAddr(jr.Addr), jr.ID, false)
	c.joins.Add(1)
	return JoinResponse{Epoch: c.epoch, Member: c.reg.info(m)}, nil
}

// JoinAddr is the legacy single-address join (tests, in-process fleets).
func (c *Coordinator) JoinAddr(addr string) MemberInfo {
	res, _ := c.Join(JoinRequest{Addr: addr})
	return res.Member
}

// Epoch returns the coordinator's fencing epoch (0 = unfenced).
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Fenced reports whether this coordinator has observed proof of a newer
// epoch and deposed itself.
func (c *Coordinator) Fenced() bool { return c.fenced.Load() }

// fenceSelf deposes this coordinator: a worker (or joining peer) holds a
// higher epoch, so a standby has taken over. The only safe move is to stop
// accepting work — draining refuses new submissions while in-flight jobs
// finish (their dispatches will be individually fenced by workers if the
// new primary got there first).
func (c *Coordinator) fenceSelf() {
	if c.fenced.CompareAndSwap(false, true) {
		c.RequestDrain()
	}
}

// Membership snapshots every registered worker.
func (c *Coordinator) Membership() []MemberInfo {
	ms := c.reg.all()
	out := make([]MemberInfo, len(ms))
	for i, m := range ms {
		out[i] = c.reg.info(m)
	}
	return out
}

// DrainRequested is closed when a drain has been requested (POST /drainz
// or RequestDrain); the daemon watches it to begin graceful shutdown.
func (c *Coordinator) DrainRequested() <-chan struct{} { return c.drainCh }

// RequestDrain flips the coordinator into draining: new submissions are
// refused with serve.ErrDraining while in-flight fleet work finishes.
func (c *Coordinator) RequestDrain() {
	c.drainOnce.Do(func() {
		c.draining.Store(true)
		close(c.drainCh)
	})
}

// Drain waits for in-flight jobs to finish (after RequestDrain) or the
// context to expire; it returns the number of jobs still in flight.
func (c *Coordinator) Drain(ctx context.Context) int {
	c.RequestDrain()
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		n := c.inflight.Load()
		if n == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return int(c.inflight.Load())
		case <-t.C:
		}
	}
}

// Close stops the heartbeat prober. It does not close the journal (the
// caller owns it) and does not drain.
func (c *Coordinator) Close() {
	select {
	case <-c.stopHB:
	default:
		close(c.stopHB)
	}
	c.hbWG.Wait()
}

// heartbeatLoop probes every registered worker's /healthz on the
// configured interval. A 2xx refreshes liveness and harvests the worker's
// backpressure telemetry (queue depth, device count, exec P50) for the
// fleet-level Retry-After; a failure feeds the hysteresis state machine —
// HeartbeatMisses consecutive failures demote, ReadmitStreak consecutive
// successes re-admit, so a flapping link cannot oscillate membership.
func (c *Coordinator) heartbeatLoop() {
	defer c.hbWG.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopHB:
			return
		case <-t.C:
		}
		members := c.reg.all()
		var wg sync.WaitGroup
		for _, m := range members {
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				c.probeMember(m)
			}(m)
		}
		wg.Wait()
	}
}

// workerHealth is the slice of a worker /healthz reply the coordinator
// consumes on heartbeats.
type workerHealth struct {
	Devices    int    `json:"devices"`
	QueueDepth int64  `json:"queue_depth"`
	ExecP50US  int64  `json:"exec_p50_us"`
	Epoch      uint64 `json:"epoch"`
}

// probeMember runs one heartbeat probe and settles it through the
// hysteresis machine.
func (c *Coordinator) probeMember(m *member) {
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.addr+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := c.hbClient.Do(req)
	if err != nil {
		if m.missed() {
			c.reg.hbDemotions.Add(1)
		}
		return
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		if m.missed() {
			c.reg.hbDemotions.Add(1)
		}
		return
	}
	var wh workerHealth
	if json.Unmarshal(raw, &wh) == nil {
		m.queueDepth.Store(wh.QueueDepth)
		m.execP50.Store(wh.ExecP50US)
		if wh.Devices > 0 {
			m.devices.Store(int64(wh.Devices))
		}
		// A worker already serving a higher epoch is proof this
		// coordinator was deposed.
		if c.epoch > 0 && wh.Epoch > c.epoch {
			c.fenceSelf()
		}
	}
	if m.seen(time.Now()) {
		c.reg.hbReadmits.Add(1)
	}
}

func (c *Coordinator) probeTimeout() time.Duration {
	to := 2 * c.cfg.HeartbeatInterval
	if to < 250*time.Millisecond {
		to = 250 * time.Millisecond
	}
	if to > 2*time.Second {
		to = 2 * time.Second
	}
	return to
}

// Submit runs one coloring job against the fleet: idempotent replay and
// cache first, then journal-accept, then route-whole or scatter-gather,
// then journal-complete and publish. wire, when non-nil, is the request's
// own JSON (the journal replay payload). The returned response always
// carries full Colors; the HTTP layer strips them per-request.
func (c *Coordinator) Submit(ctx context.Context, cr *serve.ColorRequest, rid, idemKey string, wire []byte) (*serve.ColorResponse, error) {
	if c.draining.Load() {
		return nil, serve.ErrDraining
	}
	// Admission: shed at the edge while the client can still back off
	// cheaply, instead of admitting work that will time out mid-scatter.
	if c.cfg.MaxInflight > 0 && c.inflight.Load() >= int64(c.cfg.MaxInflight) {
		c.shed.Add(1)
		return nil, ErrFleetBusy
	}
	c.inflight.Add(1)
	defer c.inflight.Add(-1)

	// Deltas carry a base fingerprint instead of a graph: they bypass
	// resolve (nothing to parse) and route to the base version's owner.
	if cr.BaseFingerprint != "" {
		return c.submitDelta(ctx, cr, rid, idemKey, wire)
	}

	g, alg, err := c.resolve(cr)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	fp := g.Fingerprint()
	key := resultKey{fp: fp, policy: policyKey(alg, cr.Seed, cr.Threshold)}

	if res, ok := c.idem.get(idemKey); ok {
		out := *res
		out.RequestID = rid
		out.IdempotentReplay = true
		return &out, nil
	}
	if !cr.NoCache {
		if res, ok := c.cache.get(key); ok {
			out := *res
			out.RequestID = rid
			out.Cached = true
			return &out, nil
		}
	}

	c.jobs.Add(1)
	c.journalAccept(rid, idemKey, key, wire, ctx)

	res, err := c.execute(ctx, g, cr, rid, idemKey, fp)
	c.journalFinish(rid, idemKey, key, cr.NoCache, res, err)
	if err != nil {
		c.failed.Add(1)
		return nil, err
	}
	res.RequestID = rid
	res.Fingerprint = graph.FingerprintString(fp)
	if cr.Resident && res.Worker != "" {
		// The worker pinned this graph in its version store; remember the
		// binding so the first delta of the chain routes straight to it.
		c.owners.put(fp, res.Worker)
	}
	if !cr.NoCache {
		stored := *res
		c.cache.put(key, &stored)
	}
	if idemKey != "" {
		stored := *res
		c.idem.put(idemKey, &stored)
	}
	return res, nil
}

// execute picks the execution shape: scatter-gather for large graphs with
// enough live workers, whole-graph routing otherwise.
func (c *Coordinator) execute(ctx context.Context, g *graph.Graph, cr *serve.ColorRequest, rid, idemKey string, fp uint64) (*serve.ColorResponse, error) {
	if c.shouldScatter(g, cr) {
		res, err := c.scatter(ctx, g, cr, rid, fp)
		if err == nil || err != errScatterUnavailable {
			if err == nil {
				c.scattered.Add(1)
			}
			return res, err
		}
		// Not enough live workers to scatter after all; fall through.
	}
	res, err := c.route(ctx, cr, rid, idemKey, fp)
	if err == nil {
		c.routed.Add(1)
	}
	return res, err
}

// shouldScatter applies the size thresholds and the explicit Shards pin.
func (c *Coordinator) shouldScatter(g *graph.Graph, cr *serve.ColorRequest) bool {
	if c.cfg.NoScatter || cr.Shards == 1 {
		return false
	}
	if cr.Resident {
		// A resident upload must land whole on one worker — shards spread
		// across the fleet leave no single version store holding the graph,
		// so every later delta would 404.
		return false
	}
	if cr.Shards >= 2 {
		return true
	}
	big := (c.cfg.ScatterVertices > 0 && g.NumVertices() >= c.cfg.ScatterVertices) ||
		(c.cfg.ScatterEdges > 0 && g.NumEdges() >= c.cfg.ScatterEdges)
	return big
}

// route forwards the whole job to rendezvous-ranked workers, failing over
// to the next-ranked worker (exclude-failed) up to RouteAttempts times.
func (c *Coordinator) route(ctx context.Context, cr *serve.ColorRequest, rid, idemKey string, fp uint64) (*serve.ColorResponse, error) {
	out := *cr
	out.IncludeColors = true // the coordinator caches full colorings
	ctx, cancel := c.workerCtx(ctx)
	defer cancel()
	exclude := make(map[int]bool)
	var lastErr error
	for attempt := 0; attempt < c.cfg.RouteAttempts; attempt++ {
		m, probe, err := c.reg.pick(fp, exclude)
		if err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		m.jobs.Add(1)
		start := time.Now()
		resp, err := callWorker(ctx, c.client, m.addr, &out, rid, idemKey, c.epoch)
		exec := time.Since(start)
		if err == nil {
			m.seen(time.Now())
			c.reg.observe(m, probe, true, 1, exec)
			resp.Worker = m.addr
			resp.Redispatched = attempt
			return resp, nil
		}
		lastErr = err
		we, _ := err.(*WorkerError)
		if we != nil && we.Status > 0 {
			m.seen(time.Now()) // it answered; sick is not dead
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
		c.routeFailovers.Add(1)
	}
	return nil, fmt.Errorf("cluster: route exhausted %d attempts: %w", c.cfg.RouteAttempts, lastErr)
}

// workerCtx guarantees every worker dispatch carries a deadline: a caller
// context without one is bounded by WorkerTimeout, so a hung worker can
// never hang a route or the scatter merge barrier indefinitely.
func (c *Coordinator) workerCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.cfg.WorkerTimeout)
}

// noteStaleEpoch reacts to a worker fencing one of our dispatches: a newer
// primary exists, so this coordinator deposes itself. Reports whether the
// error was a stale-epoch rejection (which is never failed over — every
// other worker will refuse it too).
func (c *Coordinator) noteStaleEpoch(we *WorkerError) bool {
	if we == nil || we.Kind != "stale_epoch" {
		return false
	}
	c.staleRejects.Add(1)
	c.fenceSelf()
	return true
}

// judgeWorkerError maps a failed worker call to its health observation.
// Overload rejections (429) say "loaded", not "broken": half reward, no
// breaker failure — quarantining a busy worker would shrink the fleet
// exactly when it needs capacity. Everything else retryable is a failure.
func judgeWorkerError(we *WorkerError) (good bool, reward float64) {
	if we != nil && we.Status == http.StatusTooManyRequests {
		return true, 0.5
	}
	if we != nil && !we.Retryable() {
		// The request was bad, not the worker.
		return true, 1
	}
	return false, 0
}

// resolve parses the request's graph (memoizing generator specs) and
// algorithm.
func (c *Coordinator) resolve(cr *serve.ColorRequest) (*graph.Graph, gpucolor.Algorithm, error) {
	var g *graph.Graph
	var err error
	switch {
	case cr.Gen != "" && cr.Graph != "":
		return nil, 0, fmt.Errorf("set exactly one of graph and gen")
	case cr.Gen != "":
		g, err = c.specs.get(cr.Gen)
	case cr.Graph != "":
		g, err = graph.ParseEdgeList(cr.Graph)
	default:
		return nil, 0, fmt.Errorf("set exactly one of graph and gen")
	}
	if err != nil {
		return nil, 0, err
	}
	alg := gpucolor.AlgBaseline
	if cr.Alg != "" {
		if alg, err = gpucolor.ParseAlgorithm(cr.Alg); err != nil {
			return nil, 0, err
		}
	}
	return g, alg, nil
}

// BadRequestError marks a submission the coordinator refused before any
// fleet work: unparseable graph, unknown algorithm.
type BadRequestError struct{ Err error }

// Error implements error.
func (e *BadRequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error.
func (e *BadRequestError) Unwrap() error { return e.Err }

// journalAccept writes the accept record before any dispatch, so a
// coordinator crash mid-fleet-work replays the job.
func (c *Coordinator) journalAccept(rid, idemKey string, key resultKey, wire []byte, ctx context.Context) {
	if c.jnl == nil || rid == "" || len(wire) == 0 {
		return
	}
	var deadlineMS int64
	if dl, ok := ctx.Deadline(); ok {
		deadlineMS = dl.UnixMilli()
	}
	_ = c.jnl.AppendAccept(journal.AcceptRecord{
		ID:             rid,
		IdemKey:        idemKey,
		Fingerprint:    key.fp,
		PolicyKey:      key.policy,
		DeadlineUnixMS: deadlineMS,
		AcceptedUnixMS: time.Now().UnixMilli(),
		Wire:           json.RawMessage(wire),
	})
}

// journalFinish writes the completion record for every disposition, so
// replay never re-runs finished work.
func (c *Coordinator) journalFinish(rid, idemKey string, key resultKey, noCache bool, res *serve.ColorResponse, err error) {
	if c.jnl == nil || rid == "" {
		return
	}
	rec := journal.CompleteRecord{
		ID:              rid,
		IdemKey:         idemKey,
		Fingerprint:     key.fp,
		PolicyKey:       key.policy,
		CompletedUnixMS: time.Now().UnixMilli(),
		NoCache:         noCache,
	}
	switch {
	case err == nil:
		rec.Disposition = journal.DispOK
		rec.NumColors = res.NumColors
		rec.ColorsB64 = journal.EncodeColors(res.Colors)
		rec.Cycles = res.Cycles
		rec.Iterations = res.Iterations
		rec.Shards = res.Shards
	case isDeadlineErr(err):
		rec.Disposition = journal.DispExpired
		rec.ErrKind = "deadline"
	default:
		rec.Disposition = journal.DispFailed
		rec.ErrKind = errKind(err)
	}
	_ = c.jnl.AppendComplete(rec)
}

func isDeadlineErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// errKind flattens an error to its journal/metrics kind.
func errKind(err error) string {
	var we *WorkerError
	var se *ShardError
	switch {
	case errors.As(err, &se):
		return "shard_failed"
	case errors.As(err, &we):
		return we.Kind
	case errors.Is(err, ErrNoWorkers):
		return "no_workers"
	default:
		return "failed"
	}
}

// applyRecovery warm-starts the caches from replayed completions and
// re-dispatches pending accepts in the background (bounded parallelism),
// mirroring the serving layer's crash recovery.
func (c *Coordinator) applyRecovery(rec *journal.Recovery) {
	for i := range rec.Completions {
		comp := &rec.Completions[i]
		colors, err := journal.DecodeColors(comp.ColorsB64)
		if err != nil {
			continue
		}
		res := &serve.ColorResponse{
			Fingerprint: graph.FingerprintString(comp.Fingerprint),
			NumColors:   comp.NumColors,
			Colors:      colors,
			Cycles:      comp.Cycles,
			Iterations:  comp.Iterations,
			Shards:      comp.Shards,
			Scattered:   comp.Shards > 1,
		}
		if !comp.NoCache {
			c.cache.put(resultKey{fp: comp.Fingerprint, policy: comp.PolicyKey}, res)
			c.recWarmCache.Add(1)
		}
		if comp.IdemKey != "" {
			c.idem.put(comp.IdemKey, res)
			c.recWarmIdem.Add(1)
		}
	}
	pending := make([]journal.AcceptRecord, len(rec.Pending))
	copy(pending, rec.Pending)
	c.recPending.Store(int64(len(pending)))
	if len(pending) == 0 {
		c.recDone.Store(true)
		return
	}
	go c.replayPending(pending)
}

// replayPending re-dispatches the journal's interrupted jobs through the
// normal Submit path (which re-journals them; replay dedupe collapses the
// duplicate accepts). Jobs whose deadline already passed are expired
// explicitly, never silently dropped.
func (c *Coordinator) replayPending(pending []journal.AcceptRecord) {
	defer c.recDone.Store(true)
	sem := make(chan struct{}, c.cfg.ReplayParallelism)
	var wg sync.WaitGroup
	for i := range pending {
		a := pending[i]
		if c.draining.Load() {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			c.replayOne(a)
			c.recReplayed.Add(1)
		}()
	}
	wg.Wait()
}

func (c *Coordinator) replayOne(a journal.AcceptRecord) {
	if a.DeadlineUnixMS > 0 && time.Now().UnixMilli() > a.DeadlineUnixMS {
		if c.jnl != nil {
			_ = c.jnl.AppendComplete(journal.CompleteRecord{
				ID: a.ID, IdemKey: a.IdemKey,
				Fingerprint: a.Fingerprint, PolicyKey: a.PolicyKey,
				Disposition:     journal.DispReplayExpired,
				ErrKind:         "deadline",
				CompletedUnixMS: time.Now().UnixMilli(),
			})
		}
		return
	}
	var cr serve.ColorRequest
	if len(a.Wire) == 0 || json.Unmarshal(a.Wire, &cr) != nil {
		if c.jnl != nil {
			_ = c.jnl.AppendComplete(journal.CompleteRecord{
				ID: a.ID, IdemKey: a.IdemKey,
				Fingerprint: a.Fingerprint, PolicyKey: a.PolicyKey,
				Disposition:     journal.DispFailed,
				ErrKind:         "unreplayable",
				CompletedUnixMS: time.Now().UnixMilli(),
			})
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.WorkerTimeout)
	defer cancel()
	if _, err := c.Submit(ctx, &cr, a.ID, a.IdemKey, a.Wire); err != nil {
		c.recReplayErr.Add(1)
	}
}

// SetTakeoverMS records the detect→serving latency of the standby
// takeover that built this coordinator (surfaced in Stats/metrics so the
// partition drill can gate on it).
func (c *Coordinator) SetTakeoverMS(ms int64) { c.takeoverMS.Store(ms) }

// RetryAfterHint computes the fleet-level Retry-After for a rejected
// request: the policy is serve.ComputeRetryAfter fed with the aggregate
// queue depth, device count, and worst exec P50 the workers reported on
// their heartbeats. The coordinator's own admitted-but-unfinished jobs
// count toward the backlog too — they will land on those same queues.
func (c *Coordinator) RetryAfterHint(kind string) int {
	depth, devices, p50 := c.reg.fleetLoad()
	depth += int(c.inflight.Load())
	return serve.ComputeRetryAfter(kind, depth, devices, p50, c.draining.Load())
}

// Stats is the coordinator's observable state.
type Stats struct {
	Workers      int `json:"workers"`
	AliveWorkers int `json:"alive_workers"`

	Epoch        uint64 `json:"epoch"`
	Fenced       bool   `json:"fenced"`
	StaleRejects int64  `json:"stale_epoch_rejects"`
	TakeoverMS   int64  `json:"takeover_ms,omitempty"`

	Jobs             int64 `json:"jobs"`
	DeltaJobs        int64 `json:"delta_jobs"`
	DeltaOwnerHits   int64 `json:"delta_owner_hits"`
	DeltaOwnerMisses int64 `json:"delta_owner_misses"`
	VersionOwners    int   `json:"version_owners"`
	Routed           int64 `json:"routed"`
	Scattered        int64 `json:"scattered"`
	Failed           int64 `json:"failed"`
	Shed             int64 `json:"shed"`
	RouteFailovers   int64 `json:"route_failovers"`
	Redispatches     int64 `json:"redispatches"`
	Joins            int64 `json:"joins"`

	Quarantines int64 `json:"quarantines"`
	Readmitted  int64 `json:"readmitted"`
	Probes      int64 `json:"probes"`

	GrayDemotions         int64 `json:"gray_demotions"`
	HeartbeatDemotions    int64 `json:"heartbeat_demotions"`
	HeartbeatReadmissions int64 `json:"heartbeat_readmissions"`
	Rebinds               int64 `json:"rebinds"`

	FleetQueueDepth int `json:"fleet_queue_depth"`
	FleetDevices    int `json:"fleet_devices"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheEntries   int   `json:"cache_entries"`
	IdemEntries    int   `json:"idem_entries"`

	Draining bool  `json:"draining"`
	Inflight int64 `json:"inflight"`

	RecoveryDone     bool  `json:"recovery_done"`
	RecoveryPending  int64 `json:"recovery_pending"`
	RecoveryReplayed int64 `json:"recovery_replayed"`
	RecoveryFailed   int64 `json:"recovery_failed"`
	WarmedCache      int64 `json:"warmed_cache"`
	WarmedIdem       int64 `json:"warmed_idem"`

	Members []MemberInfo `json:"members"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	hits, misses, evict := c.cache.stats()
	depth, devices, _ := c.reg.fleetLoad()
	st := Stats{
		Workers:      c.reg.size(),
		AliveWorkers: len(c.reg.alive()),

		Epoch:        c.epoch,
		Fenced:       c.fenced.Load(),
		StaleRejects: c.staleRejects.Load(),
		TakeoverMS:   c.takeoverMS.Load(),

		Jobs:             c.jobs.Load(),
		DeltaJobs:        c.deltaJobs.Load(),
		DeltaOwnerHits:   c.deltaOwnerHits.Load(),
		DeltaOwnerMisses: c.deltaOwnerMisses.Load(),
		VersionOwners:    c.owners.len(),
		Routed:           c.routed.Load(),
		Scattered:        c.scattered.Load(),
		Failed:           c.failed.Load(),
		Shed:             c.shed.Load(),
		RouteFailovers:   c.routeFailovers.Load(),
		Redispatches:     c.redispatches.Load(),
		Joins:            c.joins.Load(),

		Quarantines: c.reg.quarantines.Load(),
		Readmitted:  c.reg.readmitted.Load(),
		Probes:      c.reg.probes.Load(),

		GrayDemotions:         c.reg.grayDemotions.Load(),
		HeartbeatDemotions:    c.reg.hbDemotions.Load(),
		HeartbeatReadmissions: c.reg.hbReadmits.Load(),
		Rebinds:               c.reg.rebinds.Load(),

		FleetQueueDepth: depth,
		FleetDevices:    devices,

		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evict,
		CacheEntries:   c.cache.len(),
		IdemEntries:    c.idem.len(),

		Draining: c.draining.Load(),
		Inflight: c.inflight.Load(),

		RecoveryDone:     c.recDone.Load(),
		RecoveryPending:  c.recPending.Load(),
		RecoveryReplayed: c.recReplayed.Load(),
		RecoveryFailed:   c.recReplayErr.Load(),
		WarmedCache:      c.recWarmCache.Load(),
		WarmedIdem:       c.recWarmIdem.Load(),

		Members: c.Membership(),
	}
	return st
}

// specMemo is a tiny LRU of generated graphs keyed by generator spec, so
// a hot spec driven by every load-generator worker is built once.
type specMemo struct {
	mu    sync.Mutex
	cap   int
	order *list.List
	byKey map[string]*list.Element
}

type specMemoEntry struct {
	key string
	g   *graph.Graph
}

func newSpecMemo(capacity int) *specMemo {
	return &specMemo{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

func (c *specMemo) get(spec string) (*graph.Graph, error) {
	c.mu.Lock()
	if el, ok := c.byKey[spec]; ok {
		c.order.MoveToFront(el)
		g := el.Value.(*specMemoEntry).g
		c.mu.Unlock()
		return g, nil
	}
	c.mu.Unlock()
	g, err := serve.ParseGraphSpec(spec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.byKey[spec]; !ok {
		c.byKey[spec] = c.order.PushFront(&specMemoEntry{key: spec, g: g})
		for c.order.Len() > c.cap {
			el := c.order.Back()
			c.order.Remove(el)
			delete(c.byKey, el.Value.(*specMemoEntry).key)
		}
	}
	c.mu.Unlock()
	return g, nil
}
