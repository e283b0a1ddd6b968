package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcolor/internal/graph"
	"gcolor/internal/lru"
	"gcolor/internal/serve"
)

// Coordinator is the fleet's front door: it owns no devices, only the
// worker registry and serve's admission core (the merged-result cache,
// the idempotency map, coalescing, the drain gate and — when configured —
// the write-ahead journal), whose misses it routes or scatters. One
// Coordinator serves many concurrent Submit calls.
type Coordinator struct {
	cfg      Config
	epoch    uint64 // fencing epoch, immutable after construction (0 = unfenced)
	reg      *registry
	front    *serve.Admission
	owners   ownerTable
	client   *http.Client
	hbClient *http.Client // control-plane client (header-timeout bounded)

	drainCh   chan struct{}
	drainOnce sync.Once
	inflight  atomic.Int64

	stopHB chan struct{}
	hbWG   sync.WaitGroup

	jobs             atomic.Int64 // admitted jobs (post idem/cache)
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
	takeoverMS atomic.Int64 // detect→serving latency of the takeover (0 = not a takeover)
}

// NewCoordinator builds a coordinator, registers the static peers, starts
// the heartbeat prober (unless disabled), and — when Config.Recovery is
// set — warm-starts the caches from replayed completions and re-dispatches
// the journal's pending jobs in the background.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:   cfg,
		epoch: cfg.Epoch,
		reg:   newRegistry(cfg.HeartbeatInterval),
		front: serve.NewAdmission(serve.Config{CacheEntries: cfg.CacheEntries,
			ReplayParallelism: cfg.ReplayParallelism, Journal: cfg.Journal}),
		owners:  ownerTable{lru.New[uint64, string](ownerEntries)},
		client:  cfg.Client,
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
	c.front.Recover(cfg.Recovery, c.submit)
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

// RequestDrain flips the coordinator into draining: fresh work is refused
// with serve.ErrDraining while in-flight fleet work finishes; idempotent
// replays and cache hits are still answered.
func (c *Coordinator) RequestDrain() {
	c.drainOnce.Do(func() {
		c.front.StartDrain()
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
// heartbeatMisses consecutive failures demote, readmitStreak consecutive
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

// Submit runs one coloring job against the fleet through the admission
// front door — idempotent replay, the merged-result cache, coalescing, the
// drain gate and the journal — whose misses are routed whole or
// scatter-gathered. wire, when non-nil, is the request's own JSON (the
// journal replay payload). The returned response always carries full
// Colors; the HTTP layer strips them per-request.
func (c *Coordinator) Submit(ctx context.Context, cr *serve.ColorRequest, rid, idemKey string, wire []byte) (*serve.ColorResponse, error) {
	req, err := c.front.Request(cr)
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	req.Wire = wire
	req.RequestID, req.IdemKey = rid, idemKey
	return c.answer(ctx, cr, req)
}

// answer serves a decoded request and renders its reply, colors included:
// the coordinator's serve.ColorExec.
func (c *Coordinator) answer(ctx context.Context, cr *serve.ColorRequest, req *serve.Request) (*serve.ColorResponse, error) {
	res, err := c.submit(ctx, cr, req)
	if err != nil {
		return nil, err
	}
	return serve.WireResponse(res, req), nil
}

// submit serves a built request; recovery re-submits pending accepts
// through it too. A delta carries a base fingerprint instead of a graph
// and runs whole on the base version's owner. Everything submit admits
// counts as in flight, so Drain waits for it.
func (c *Coordinator) submit(ctx context.Context, cr *serve.ColorRequest, req *serve.Request) (*serve.Response, error) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if g := req.Graph; g != nil && req.Fingerprint == 0 {
		req.Fingerprint = g.Fingerprint()
	}
	return c.front.Serve(ctx, req, shardKey(cr), func() (*serve.Response, error) {
		return c.execute(ctx, cr, req)
	})
}

// shardKey is the shard count a request's answer is cached and coalesced
// under: the count it pins (1 = whole, as is any negative count), or 0
// for auto. An auto request's count is chosen at execution — by the
// coordinator from the live fleet, or by the worker it is routed to — so
// the key must not depend on it: a worker joining or leaving would
// otherwise strand every cached scatter.
func shardKey(cr *serve.ColorRequest) int {
	if cr.Shards < 0 {
		return 1
	}
	return cr.Shards
}

// execute runs one admitted miss: shed it when more than maxInflight
// requests are in flight (journaled like a worker's queue-full rejection,
// and retried by the caller), otherwise route a delta to its owner,
// scatter-gather a graph of several shards, or route it whole.
func (c *Coordinator) execute(ctx context.Context, cr *serve.ColorRequest, req *serve.Request) (*serve.Response, error) {
	if c.inflight.Load() > maxInflight {
		c.shed.Add(1)
		return nil, ErrFleetBusy
	}
	c.jobs.Add(1)
	var res *serve.Response
	var err error
	switch shards := c.shardsFor(req.Graph, cr); {
	case req.Graph == nil:
		c.deltaJobs.Add(1)
		res, err = c.routeDelta(ctx, cr, req)
	case shards > 1:
		if res, err = c.scatter(ctx, cr, req, shards); err == nil {
			c.scattered.Add(1)
		}
	default:
		if res, err = c.route(ctx, cr, req); err == nil {
			c.routed.Add(1)
		}
	}
	if err != nil {
		c.failed.Add(1)
	}
	return res, err
}

// shardsFor is the shard count the coordinator runs a graph as: 1 (routed
// whole) for a delta (nil graph) or a resident upload (a resident graph
// must land whole on one worker — shards spread across the fleet leave no
// single version store holding it, so every later delta would 404), else
// the shard policy's count over the live workers, which are listed only
// once the request and the graph's size call for a split.
func (c *Coordinator) shardsFor(g *graph.Graph, cr *serve.ColorRequest) int {
	if g == nil || cr.Resident {
		return 1
	}
	return c.cfg.Shard.Count(g, cr.Shards, func() int { return len(c.reg.alive()) })
}

// route forwards the whole job to rendezvous-ranked workers, failing over
// to the next-ranked worker (exclude-failed) up to routeAttempts times. An
// uploaded graph travels as a binary CSR frame, as shards do, so the
// worker decodes it in one linear pass and never parses edge-list text
// again; a generator spec is smaller than any frame, and workers memoize
// generation, so it goes unchanged. A resident upload binds its version to
// the worker that pinned it, so the first delta of the chain routes
// straight there.
func (c *Coordinator) route(ctx context.Context, cr *serve.ColorRequest, req *serve.Request) (*serve.Response, error) {
	fp := req.Fingerprint
	out := *cr
	out.IncludeColors = true // the coordinator caches full colorings
	if out.Gen == "" && out.GraphCSRB64 == "" {
		out.Graph, out.GraphCSRB64 = "", base64.StdEncoding.EncodeToString(req.CSRFrame())
	}
	ctx, cancel := c.workerCtx(ctx)
	defer cancel()
	resp, m, tries, err := c.callWorkers(ctx, &workerCall{
		body: &out, rid: req.RequestID, idemKey: req.IdemKey,
		key: fp, tries: routeAttempts, failovers: &c.routeFailovers, name: "route",
	})
	if err != nil {
		return nil, err
	}
	resp.Fingerprint, resp.Worker, resp.Redispatched = fp, m.addr, tries-1
	if cr.Resident {
		c.owners.Put(fp, m.addr)
	}
	return resp, nil
}

// workerCall is one job's call to the fleet, as callWorkers runs it.
type workerCall struct {
	body         *serve.ColorRequest
	rid, idemKey string // X-Request-ID, and Idempotency-Key ("" for none)
	// key ranks the workers by rendezvous; pick, when set, replaces that
	// order (a delta prefers its base version's owner on the first try).
	key  uint64
	pick func(first bool, exclude map[int]bool) (m *member, probe bool, err error)
	// tries bounds the workers called; failovers counts each move to
	// another worker after a retryable failure.
	tries     int
	failovers *atomic.Int64
	// name, when set, labels the error of a call that used up its tries;
	// otherwise that error is the last try's.
	name string
}

// callWorkers runs one worker call under DESIGN's failure matrix, the one
// place every route, delta and shard dispatch settles. Each try picks a
// live member that has not failed this call, calls it, marks it seen if
// it answered, and scores the outcome into its health and breaker through
// judgeWorkerError. A stale_epoch rejection fences this coordinator and
// ends the call, as does the end of ctx; a retryable failure fails over
// to another member, up to wc.tries calls. It returns the reply, the
// member called last, the calls made and the error: ctx.Err() itself when
// the call was abandoned, ErrNoWorkers when no member was left to try
// first, else the last worker's *WorkerError.
func (c *Coordinator) callWorkers(ctx context.Context, wc *workerCall) (*serve.Response, *member, int, error) {
	exclude := make(map[int]bool)
	var lastErr error
	for try := 0; try < wc.tries; try++ {
		var m *member
		var probe bool
		var err error
		if wc.pick != nil {
			m, probe, err = wc.pick(try == 0, exclude)
		} else {
			m, probe, err = c.reg.pick(wc.key, exclude)
		}
		if err != nil {
			if lastErr != nil {
				err = lastErr
			}
			return nil, nil, try, err
		}
		m.jobs.Add(1)
		start := time.Now()
		resp, err := callWorker(ctx, c.client, m.addr, wc.body, wc.rid, wc.idemKey, c.epoch)
		exec := time.Since(start)
		if err == nil {
			m.seen(time.Now())
			c.reg.observe(m, probe, true, 1, exec)
			return resp, m, try + 1, nil
		}
		lastErr = err
		we, _ := err.(*WorkerError)
		if we != nil && we.Status > 0 {
			m.seen(time.Now()) // it answered; sick is not dead
		}
		if c.noteStaleEpoch(we) {
			return nil, m, try + 1, err
		}
		good, reward := judgeWorkerError(we)
		c.reg.observe(m, probe, good, reward, exec)
		if ctx.Err() != nil {
			return nil, m, try + 1, ctx.Err()
		}
		if we == nil || !we.Retryable() {
			return nil, m, try + 1, err
		}
		exclude[m.id] = true
		wc.failovers.Add(1)
	}
	if wc.name != "" {
		lastErr = fmt.Errorf("cluster: %s exhausted %d attempts: %w", wc.name, wc.tries, lastErr)
	}
	return nil, nil, wc.tries, lastErr
}

// workerCtx guarantees every worker dispatch carries a deadline: a caller
// context without one is bounded by workerTimeout, so a hung worker can
// never hang a route or the scatter merge barrier indefinitely.
func (c *Coordinator) workerCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, workerTimeout)
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

// BadRequestError marks a submission the coordinator refused before any
// fleet work: unparseable graph, unknown algorithm.
type BadRequestError struct{ Err error }

// Error implements error.
func (e *BadRequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error.
func (e *BadRequestError) Unwrap() error { return e.Err }

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
	return serve.ComputeRetryAfter(kind, depth, devices, p50, c.front.Draining())
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

	// MemoHits counts requests answered from the request memo, before any
	// decode; MemoEntries is the memo's size.
	MemoHits    int64 `json:"memo_hits"`
	MemoEntries int   `json:"memo_entries"`

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
	hits, misses, evict, entries, idemEntries := c.front.CacheStats()
	memoHits, memoEntries := c.front.MemoStats()
	ri := c.front.RecoveryInfo()
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
		VersionOwners:    c.owners.Len(),
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
		CacheEntries:   entries,
		IdemEntries:    idemEntries,

		MemoHits:    memoHits,
		MemoEntries: memoEntries,

		Draining: c.front.Draining(),
		Inflight: c.inflight.Load(),

		RecoveryDone:     ri.Done,
		RecoveryPending:  ri.PendingRecovered,
		RecoveryReplayed: ri.ReplayCompleted + ri.ReplayExpired + ri.ReplayFailed,
		RecoveryFailed:   ri.ReplayFailed,
		WarmedCache:      ri.WarmedCache,
		WarmedIdem:       ri.WarmedIdem,

		Members: c.Membership(),
	}
	return st
}
