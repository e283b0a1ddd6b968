package serve

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gen"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
)

// smallGraph is a fast-to-color request payload; blockerGraph holds a
// single-device worker busy for on the order of 100ms of wall time, long
// enough for the test to line up queued state behind it; slowBlockerGraph
// for on the order of a second, when several goroutines must start while
// it runs.
func smallGraph() *graph.Graph       { return gen.Grid2D(8, 8) }
func blockerGraph() *graph.Graph     { return gen.RMAT(10, 16, gen.Graph500, 1) }
func slowBlockerGraph() *graph.Graph { return gen.RMAT(12, 16, gen.Graph500, 1) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServerColorsProperly(t *testing.T) {
	s := NewServer(Config{Devices: 2})
	defer s.Stop()
	g := smallGraph()
	res, err := s.Submit(context.Background(), &Request{Graph: g, Algorithm: gpucolor.AlgBaseline})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := color.Verify(g, res.Colors); err != nil {
		t.Fatalf("coloring invalid: %v", err)
	}
	if res.Cached || res.Coalesced {
		t.Fatalf("first request flagged cached=%v coalesced=%v", res.Cached, res.Coalesced)
	}
	if res.Fingerprint != g.Fingerprint() {
		t.Fatalf("fingerprint mismatch")
	}
	if res.Device < 0 || res.Device >= 2 {
		t.Fatalf("device index %d out of pool range", res.Device)
	}
}

func TestCacheHitSkipsDevice(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	req := func() *Request { return &Request{Graph: smallGraph(), Algorithm: gpucolor.AlgBaseline} }
	first, err := s.Submit(context.Background(), req())
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	jobsAfterFirst := s.Pool().Jobs(0)
	second, err := s.Submit(context.Background(), req())
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if !second.Cached {
		t.Fatal("second identical request was not served from cache")
	}
	if second.Device != -1 {
		t.Fatalf("cache hit reported device %d, want -1", second.Device)
	}
	if got := s.Pool().Jobs(0); got != jobsAfterFirst {
		t.Fatalf("cache hit ran on the device: jobs %d -> %d", jobsAfterFirst, got)
	}
	if second.NumColors != first.NumColors {
		t.Fatalf("cached NumColors %d != original %d", second.NumColors, first.NumColors)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheHitRate <= 0 {
		t.Fatalf("stats: hits=%d rate=%v, want 1 hit", st.CacheHits, st.CacheHitRate)
	}

	// A different seed is a different policy key: must miss.
	third, err := s.Submit(context.Background(), &Request{Graph: smallGraph(), Seed: 99})
	if err != nil {
		t.Fatalf("third Submit: %v", err)
	}
	if third.Cached {
		t.Fatal("request with different seed hit the cache")
	}
}

func TestDuplicateInFlightCoalesce(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()

	// Occupy the only worker so the duplicates stay in flight together.
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		if _, err := s.Submit(context.Background(), &Request{Graph: slowBlockerGraph(), NoCache: true}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	waitFor(t, "blocker to occupy the device", func() bool {
		return s.Metrics().Gauge("devices_busy").Value() == 1
	})

	const dups = 5
	results := make(chan *Response, dups)
	errs := make(chan error, dups)
	for i := 0; i < dups; i++ {
		go func() {
			res, err := s.Submit(context.Background(), &Request{Graph: smallGraph()})
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}()
	}
	var fresh, coalesced, cached int
	for i := 0; i < dups; i++ {
		select {
		case res := <-results:
			switch {
			case res.Coalesced:
				coalesced++
			case res.Cached:
				// A goroutine scheduled after the shared execution finished
				// sees the cache instead; it still never ran a device.
				cached++
			default:
				fresh++
			}
		case err := <-errs:
			t.Fatalf("duplicate Submit: %v", err)
		case <-time.After(120 * time.Second):
			t.Fatal("timed out waiting for duplicates")
		}
	}
	<-blockerDone
	if fresh != 1 {
		t.Fatalf("%d fresh executions for %d identical requests, want exactly 1 (coalesced=%d cached=%d)",
			fresh, dups, coalesced, cached)
	}
	if coalesced == 0 {
		t.Fatal("no duplicate coalesced onto the in-flight execution")
	}
	// One execution for the blocker + exactly one for all duplicates.
	if got := s.Pool().Jobs(0); got != 2 {
		t.Fatalf("device ran %d jobs, want 2 (blocker + one coalesced execution)", got)
	}
	if st := s.Stats(); st.Coalesced != int64(coalesced) {
		t.Fatalf("stats.Coalesced = %d, want %d", st.Coalesced, coalesced)
	}
}

func TestQueueFullAndShedding(t *testing.T) {
	// Exercise admission directly on the queue: deterministic, no devices.
	q := newJobQueue(2, 0.5) // shedAt = 1
	mk := func(p Priority) *job {
		return &job{ctx: context.Background(), req: &Request{Priority: p}, fl: &flight{done: make(chan struct{})}}
	}
	if err := q.push(mk(PriorityNormal)); err != nil {
		t.Fatalf("push 1 (empty queue): %v", err)
	}
	// Occupancy 1 >= shedAt: normal and low are shed, high admitted.
	if err := q.push(mk(PriorityNormal)); !errors.Is(err, ErrShedding) {
		t.Fatalf("normal push at shed threshold: err=%v, want ErrShedding", err)
	}
	if err := q.push(mk(PriorityLow)); !errors.Is(err, ErrShedding) {
		t.Fatalf("low push at shed threshold: err=%v, want ErrShedding", err)
	}
	if err := q.push(mk(PriorityHigh)); err != nil {
		t.Fatalf("high push at shed threshold: %v", err)
	}
	// Occupancy 2 == capacity: even high is rejected, and full wins over shed.
	if err := q.push(mk(PriorityHigh)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("high push at capacity: err=%v, want ErrQueueFull", err)
	}
	if err := q.push(mk(PriorityNormal)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("normal push at capacity: err=%v, want ErrQueueFull", err)
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	q := newJobQueue(10, 1) // shedding disabled
	mk := func(p Priority, tag uint64) *job {
		return &job{ctx: context.Background(), req: &Request{Priority: p}, fp: tag}
	}
	for _, j := range []*job{mk(PriorityLow, 1), mk(PriorityNormal, 2), mk(PriorityHigh, 3), mk(PriorityNormal, 4), mk(PriorityHigh, 5)} {
		if err := q.push(j); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	var got []uint64
	for i := 0; i < 5; i++ {
		j, err := q.pop(context.Background(), func(*job) { t.Fatal("unexpected expiry") })
		if err != nil {
			t.Fatalf("pop: %v", err)
		}
		got = append(got, j.fp)
	}
	want := []uint64{3, 5, 2, 4, 1} // high FIFO, then normal FIFO, then low
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestDeadlineExpiredNeverReachesDevice(t *testing.T) {
	// Queue-level: a job whose context is already done is diverted to the
	// expired callback, never returned to a worker.
	q := newJobQueue(4, 1)
	ctx, cancel := context.WithCancel(context.Background())
	dead := &job{ctx: ctx, req: &Request{}, fl: &flight{done: make(chan struct{})}}
	live := &job{ctx: context.Background(), req: &Request{}, fp: 42, fl: &flight{done: make(chan struct{})}}
	if err := q.push(dead); err != nil {
		t.Fatalf("push dead: %v", err)
	}
	if err := q.push(live); err != nil {
		t.Fatalf("push live: %v", err)
	}
	cancel()
	var expired []*job
	j, err := q.pop(context.Background(), func(e *job) { expired = append(expired, e) })
	if err != nil {
		t.Fatalf("pop: %v", err)
	}
	if j.fp != 42 {
		t.Fatalf("pop returned the expired job")
	}
	if len(expired) != 1 || expired[0] != dead {
		t.Fatalf("expired callback got %d jobs, want the dead one", len(expired))
	}

	// Server-level: cancel a queued request behind a blocker; the device
	// must only ever run the blocker.
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	go s.Submit(context.Background(), &Request{Graph: blockerGraph(), NoCache: true})
	waitFor(t, "blocker to occupy the device", func() bool {
		return s.Metrics().Gauge("devices_busy").Value() == 1
	})
	reqCtx, reqCancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Submit(reqCtx, &Request{Graph: smallGraph()})
		errCh <- err
	}()
	waitFor(t, "request to queue", func() bool { return s.Stats().QueueDepth >= 1 })
	reqCancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Submit returned %v, want context.Canceled", err)
	}
	waitFor(t, "expiry to be recorded", func() bool { return s.Stats().DeadlineExpired == 1 })
	if got := s.Pool().Jobs(0); got != 1 {
		t.Fatalf("device ran %d jobs, want only the blocker", got)
	}
}

func TestPoolLeasing(t *testing.T) {
	p := UniformPool(2, DeviceConfig{})
	ctx := context.Background()
	l1, err := p.Acquire(ctx)
	if err != nil {
		t.Fatalf("Acquire 1: %v", err)
	}
	l2, err := p.Acquire(ctx)
	if err != nil {
		t.Fatalf("Acquire 2: %v", err)
	}
	if l1.Index() == l2.Index() {
		t.Fatalf("two live leases share device %d", l1.Index())
	}
	if _, ok := p.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded on an exhausted pool")
	}
	// A blocked Acquire honours its context.
	shortCtx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Acquire: err=%v, want DeadlineExceeded", err)
	}
	l1.Release()
	l1.Release() // idempotent
	l3, ok := p.TryAcquire()
	if !ok {
		t.Fatal("TryAcquire failed after a release")
	}
	if l3.Index() != l1.Index() {
		t.Fatalf("released device %d not re-leased (got %d)", l1.Index(), l3.Index())
	}
	l2.Release()
	l3.Release()
	if p.Jobs(0)+p.Jobs(1) != 3 {
		t.Fatalf("completed leases = %d, want 3", p.Jobs(0)+p.Jobs(1))
	}
	if p.Utilization(time.Second) <= 0 {
		t.Fatal("utilization is zero after leases completed")
	}
}

func TestServerStopDrains(t *testing.T) {
	s := NewServer(Config{Devices: 2})
	res, err := s.Submit(context.Background(), &Request{Graph: smallGraph()})
	if err != nil || res == nil {
		t.Fatalf("Submit before Stop: %v", err)
	}
	s.Stop()
	if _, err := s.Submit(context.Background(), &Request{Graph: smallGraph(), NoCache: true}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Stop: err=%v, want ErrClosed", err)
	}
}

// queueBehindBlocker submits reqs to a one-device, one-worker server
// while slowBlockerGraph holds its device, waits until every one of them
// is queued, and returns their responses in request order.
func queueBehindBlocker(t *testing.T, s *Server, reqs []*Request) []*Response {
	t.Helper()
	blockerDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), &Request{Graph: slowBlockerGraph(), NoCache: true})
		blockerDone <- err
	}()
	waitFor(t, "blocker to occupy the device", func() bool {
		return s.Metrics().Gauge("devices_busy").Value() == 1
	})
	type result struct {
		i   int
		res *Response
		err error
	}
	results := make(chan result, len(reqs))
	for i, r := range reqs {
		go func() {
			res, err := s.Submit(context.Background(), r)
			results <- result{i, res, err}
		}()
	}
	waitFor(t, "jobs to queue", func() bool { return s.Stats().QueueDepth == int64(len(reqs)) })
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	got := make([]*Response, len(reqs))
	for range reqs {
		r := <-results
		if r.err != nil {
			t.Fatalf("job %d: %v", r.i, r.err)
		}
		got[r.i] = r.res
	}
	return got
}

// queuedSmallJobs are distinct small graphs that share every request knob
// but the seed.
func queuedSmallJobs() []*Request {
	return []*Request{
		{Graph: gen.Grid2D(8, 9), Seed: 0},
		{Graph: gen.GNM(120, 480, 2), Seed: 7},
		{Graph: gen.Star(40), Seed: 1234},
		{Graph: gen.GNM(60, 90, 9), Seed: 7},
	}
}

// TestBatchedJobsMatchSolo: small graphs queued together behind a blocker
// are each answered as their own run — colors, color count, cycles and
// iterations equal a fresh server's answer to the same request — and the
// cached repeat of each carries those same solo cycles.
func TestBatchedJobsMatchSolo(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	reqs := queuedSmallJobs()
	got := queueBehindBlocker(t, s, reqs)
	for i, r := range reqs {
		res := got[i]
		if res.Batched || res.BatchSize != 0 {
			t.Fatalf("job %d: batched=%v size=%d, want a solo run", i, res.Batched, res.BatchSize)
		}
		if err := color.Verify(r.Graph, res.Colors); err != nil {
			t.Fatalf("job %d: invalid coloring: %v", i, err)
		}
		want := freshRun(t, r)
		if !slices.Equal(res.Colors, want.Colors) || res.NumColors != want.NumColors ||
			res.Cycles != want.Cycles || res.Iterations != want.Iterations {
			t.Fatalf("job %d: %d colors, %d cycles, %d iterations; a fresh server gives %d, %d, %d (colors equal: %v)",
				i, res.NumColors, res.Cycles, res.Iterations, want.NumColors, want.Cycles, want.Iterations,
				slices.Equal(res.Colors, want.Colors))
		}
		rep, err := s.Submit(context.Background(), &Request{Graph: r.Graph, Seed: r.Seed})
		if err != nil || !rep.Cached {
			t.Fatalf("job %d repeat: cached=%v err=%v, want a cache hit", i, rep != nil && rep.Cached, err)
		}
		if rep.Cycles != want.Cycles || rep.Iterations != want.Iterations {
			t.Fatalf("job %d repeat: %d cycles, %d iterations; solo %d, %d", i, rep.Cycles, rep.Iterations, want.Cycles, want.Iterations)
		}
	}
	if st := s.Stats(); st.BatchedJobs != 0 {
		t.Fatalf("BatchedJobs = %d, want 0", st.BatchedJobs)
	}
}

// freshRun answers r on a server that has served nothing else.
func freshRun(t *testing.T, r *Request) *Response {
	t.Helper()
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	res, err := s.Submit(context.Background(), &Request{Graph: r.Graph, Seed: r.Seed})
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	return res
}

// TestBatchMemberFaultRetriesSolo: on a device whose fault injector is
// armed, every job queued behind the blocker settles exactly once with a
// coloring that verifies for its own graph and fingerprint, and none ran
// fused with another.
func TestBatchMemberFaultRetriesSolo(t *testing.T) {
	s := NewServer(Config{Devices: 1, Device: DeviceConfig{FaultRate: 5e-3, FaultSeed: 11}})
	defer s.Stop()
	reqs := []*Request{
		{Graph: gen.Grid2D(8, 9), Seed: 3},
		{Graph: gen.GNM(120, 480, 2), Seed: 7},
		{Graph: gen.Grid2D(10, 7), Seed: 11},
	}
	got := queueBehindBlocker(t, s, reqs)
	for i, r := range reqs {
		res := got[i]
		if res.Fingerprint != r.Graph.Fingerprint() {
			t.Fatalf("job %d: fingerprint %x, want %x", i, res.Fingerprint, r.Graph.Fingerprint())
		}
		if err := color.Verify(r.Graph, res.Colors); err != nil {
			t.Fatalf("job %d: invalid coloring under faults: %v", i, err)
		}
		if res.Batched {
			t.Fatalf("job %d: reported Batched", i)
		}
	}
	injected := s.Pool().FaultInjector(0).Stats().Injected()
	t.Logf("%d faults injected, %d jobs recovered", injected, s.Metrics().Counter("recovered_total").Value())
	if injected == 0 {
		t.Fatal("no fault was injected; the test exercises nothing")
	}
	st := s.Stats()
	if st.Completed != int64(len(reqs))+1 || st.Failed != 0 { // jobs + blocker
		t.Fatalf("Completed = %d, Failed = %d; want %d and 0", st.Completed, st.Failed, len(reqs)+1)
	}
}

// TestQueueGather: compatible small jobs queued together each take their
// own device lease, so the device's job count rises by one per job plus
// the blocker.
func TestQueueGather(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	reqs := queuedSmallJobs()
	queueBehindBlocker(t, s, reqs)
	if got, want := s.Stats().PerDevice[0].Jobs, int64(len(reqs))+1; got != want {
		t.Fatalf("device leases = %d, want %d (one per job plus the blocker)", got, want)
	}
}

func TestParseGraphSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantN   int
		wantErr bool
	}{
		{"grid:4:4", 16, false},
		{"gnm:100:200:1", 100, false},
		{"rmat:6:8:1", 64, false},
		{"complete:5", 5, false},
		{"star:9", 9, false},
		{"path:7", 7, false},
		{"cycle:7", 7, false},
		{"ba:50:3:1", 50, false},
		{"ws:60:4:10:1", 60, false},
		{"nope:1", 0, true},
		{"rmat:99:8", 0, true},
		{"grid:4", 0, true},
		{"gnm:abc:2", 0, true},
	}
	for _, c := range cases {
		g, err := ParseGraphSpec(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: expected error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if g.NumVertices() != c.wantN {
			t.Errorf("%q: n=%d, want %d", c.spec, g.NumVertices(), c.wantN)
		}
	}
	// Determinism: the same spec parses to the same fingerprint.
	a, _ := ParseGraphSpec("rmat:8:8:3")
	b, _ := ParseGraphSpec("rmat:8:8:3")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same spec produced different graphs")
	}
}
