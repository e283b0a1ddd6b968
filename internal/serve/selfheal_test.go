package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gpucolor"
)

// fakeClock is an injectable breaker clock: tests advance it explicitly
// instead of sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(clk *fakeClock) *Breaker {
	return newBreaker(breakerConfig{
		failureThreshold: 3,
		openBelow:        0.25,
		cooldown:         time.Second,
		maxCooldown:      4 * time.Second,
		probeSuccesses:   2,
	}, clk.now)
}

func TestBreakerStateMachine(t *testing.T) {
	t.Run("successes keep it closed", func(t *testing.T) {
		b := testBreaker(&fakeClock{})
		for i := 0; i < 10; i++ {
			if b.Record(true, 0.9) {
				t.Fatalf("success %d tripped the breaker", i)
			}
		}
		if b.State() != BreakerClosed {
			t.Fatalf("state = %v, want closed", b.State())
		}
	})

	t.Run("consecutive failures trip at threshold", func(t *testing.T) {
		b := testBreaker(&fakeClock{})
		for i := 0; i < 2; i++ {
			if b.Record(false, 0.9) {
				t.Fatalf("failure %d tripped early", i)
			}
		}
		// A success resets the run.
		b.Record(true, 0.9)
		b.Record(false, 0.9)
		b.Record(false, 0.9)
		if b.State() != BreakerClosed {
			t.Fatal("tripped before threshold after reset")
		}
		if !b.Record(false, 0.9) {
			t.Fatal("third consecutive failure did not trip")
		}
		if b.State() != BreakerOpen {
			t.Fatalf("state = %v, want open", b.State())
		}
	})

	t.Run("low health score trips regardless of failures", func(t *testing.T) {
		b := testBreaker(&fakeClock{})
		if !b.Record(true, 0.1) {
			t.Fatal("score 0.1 < openBelow did not trip")
		}
	})

	t.Run("open until cooldown, then a single probe slot", func(t *testing.T) {
		clk := &fakeClock{}
		b := testBreaker(clk)
		for i := 0; i < 3; i++ {
			b.Record(false, 0.9)
		}
		if b.Allow() {
			t.Fatal("open breaker allowed a normal lease")
		}
		if b.TryProbe() {
			t.Fatal("probe admitted before cooldown")
		}
		clk.advance(999 * time.Millisecond)
		if b.TryProbe() {
			t.Fatal("probe admitted 1ms early")
		}
		clk.advance(time.Millisecond)
		if !b.TryProbe() {
			t.Fatal("probe rejected after cooldown")
		}
		if b.State() != BreakerHalfOpen {
			t.Fatalf("state = %v, want half-open", b.State())
		}
		if b.TryProbe() {
			t.Fatal("second concurrent probe admitted")
		}
		// A canceled probe frees the slot without judging the device.
		b.ReleaseProbe()
		if !b.TryProbe() {
			t.Fatal("probe slot not freed by ReleaseProbe")
		}
	})

	t.Run("failed probe reopens with doubled cooldown, capped", func(t *testing.T) {
		clk := &fakeClock{}
		b := testBreaker(clk)
		for i := 0; i < 3; i++ {
			b.Record(false, 0.9)
		}
		fail := func(wantCooldown time.Duration) {
			t.Helper()
			clk.advance(wantCooldown)
			if !b.TryProbe() {
				t.Fatalf("probe rejected after %v cooldown", wantCooldown)
			}
			if tripped, readmitted := b.RecordProbe(false); !tripped || readmitted {
				t.Fatalf("failed probe: tripped=%v readmitted=%v, want tripped only", tripped, readmitted)
			}
			if b.State() != BreakerOpen {
				t.Fatalf("state after failed probe = %v, want open", b.State())
			}
		}
		fail(time.Second)     // base cooldown; next becomes 2s
		fail(2 * time.Second) // next becomes 4s
		fail(4 * time.Second) // capped at maxCooldown = 4s
		// Still capped: 4s, not 8s.
		clk.advance(4 * time.Second)
		if !b.TryProbe() {
			t.Fatal("cooldown exceeded maxCooldown cap")
		}
	})

	t.Run("clean probes re-admit and reset the cooldown", func(t *testing.T) {
		clk := &fakeClock{}
		b := testBreaker(clk)
		for i := 0; i < 3; i++ {
			b.Record(false, 0.9)
		}
		clk.advance(time.Second)
		if !b.TryProbe() {
			t.Fatal("probe rejected")
		}
		if tripped, readmitted := b.RecordProbe(true); tripped || readmitted {
			t.Fatalf("first clean probe: tripped=%v readmitted=%v, want neither (1/2)", tripped, readmitted)
		}
		if !b.TryProbe() {
			t.Fatal("second probe rejected")
		}
		if tripped, readmitted := b.RecordProbe(true); tripped || !readmitted {
			t.Fatalf("second clean probe: tripped=%v readmitted=%v, want readmitted only", tripped, readmitted)
		}
		if b.State() != BreakerClosed {
			t.Fatalf("state = %v, want closed after probation", b.State())
		}
		if !b.Allow() {
			t.Fatal("re-admitted breaker refused a normal lease")
		}
		// Cooldown was reset to base by the re-admission.
		for i := 0; i < 3; i++ {
			b.Record(false, 0.9)
		}
		clk.advance(time.Second)
		if !b.TryProbe() {
			t.Fatal("cooldown was not reset to base after re-admission")
		}
	})

	t.Run("records while non-closed are no-ops", func(t *testing.T) {
		b := testBreaker(&fakeClock{})
		for i := 0; i < 3; i++ {
			b.Record(false, 0.9)
		}
		// A fail-open lease finishing on a quarantined device must not
		// re-trip or re-admit anything.
		if b.Record(false, 0.0) {
			t.Fatal("Record while open tripped the breaker again")
		}
		if b.State() != BreakerOpen {
			t.Fatalf("state = %v, want open", b.State())
		}
	})
}

func TestOutcomeRewards(t *testing.T) {
	cases := []struct {
		kind   gpucolor.OutcomeKind
		faults int64
		want   float64
		counts bool
	}{
		{gpucolor.OutcomeSuccess, 0, rewardSuccess, true},
		{gpucolor.OutcomeSuccess, 3, rewardFaultMasked, true}, // fault-absorbed
		{gpucolor.OutcomeRepaired, 0, rewardRepaired, true},
		{gpucolor.OutcomeRetried, 0, rewardRetried, true},
		{gpucolor.OutcomeCPUFallback, 0, rewardCPUFallback, true},
		{gpucolor.OutcomeWatchdog, 0, rewardFailure, true},
		{gpucolor.OutcomeBudget, 0, rewardFailure, true},
		{gpucolor.OutcomeFailed, 0, rewardFailure, true},
		{gpucolor.OutcomeCanceled, 0, 0, false}, // hedge losers are neutral
	}
	for _, c := range cases {
		got, counts := outcomeReward(c.kind, c.faults)
		if got != c.want || counts != c.counts {
			t.Errorf("outcomeReward(%v, %d) = (%v, %v), want (%v, %v)",
				c.kind, c.faults, got, counts, c.want, c.counts)
		}
	}
}

func TestHealthScoreEWMA(t *testing.T) {
	h := newFleetHealth(2, 0.5)
	if got := h.Score(0); got != 1 {
		t.Fatalf("initial score = %v, want 1", got)
	}
	// Failures decay toward 0, successes recover toward 1.
	h.Observe(0, rewardFailure, 0)
	if got := h.Score(0); got != 0.5 {
		t.Fatalf("after one failure: %v, want 0.5", got)
	}
	h.Observe(0, rewardFailure, 0)
	if got := h.Score(0); got != 0.25 {
		t.Fatalf("after two failures: %v, want 0.25", got)
	}
	h.Observe(0, rewardSuccess, 0)
	if got := h.Score(0); got != 0.625 {
		t.Fatalf("recovery: %v, want 0.625", got)
	}
	if got := h.Score(1); got != 1 {
		t.Fatalf("device 1 score moved to %v without observations", got)
	}
	// Boost only raises.
	h.Boost(0, 0.9)
	if got := h.Score(0); got != 0.9 {
		t.Fatalf("Boost: %v, want 0.9", got)
	}
	h.Boost(0, 0.1)
	if got := h.Score(0); got != 0.9 {
		t.Fatalf("Boost lowered a score: %v", got)
	}
	// Latency penalty: a success far beyond slack×median keeps only part
	// of its reward.
	for i := 0; i < 16; i++ {
		h.Observe(1, rewardSuccess, 10*time.Millisecond)
	}
	before := h.Score(1)
	h.Observe(1, rewardSuccess, 400*time.Millisecond) // 40× median, slack 4
	if got := h.Score(1); got >= before {
		t.Fatalf("glacial success did not penalise: %v -> %v", before, got)
	}
}

func TestHedgeTrackerWarmup(t *testing.T) {
	h := newHedgeTracker(3, time.Millisecond)
	if _, ok := h.threshold(); ok {
		t.Fatal("threshold active before any samples")
	}
	h.observe(10 * time.Microsecond)
	h.observe(20 * time.Microsecond)
	if _, ok := h.threshold(); ok {
		t.Fatal("threshold active below minSamples")
	}
	h.observe(30 * time.Microsecond)
	thr, ok := h.threshold()
	if !ok {
		t.Fatal("threshold inactive at minSamples")
	}
	if thr < time.Millisecond {
		t.Fatalf("threshold %v below floor", thr)
	}
}

// TestHedgedDispatch: a job that runs past the hedge threshold is
// re-dispatched to the second device; exactly one response comes back, the
// loser is canceled, and both leases are released.
func TestHedgedDispatch(t *testing.T) {
	s := NewServer(Config{
		// Deliberately lopsided device speeds (simulation host goroutines)
		// so whichever attempt loses still has most of its run left when
		// the winner finishes — the cancellation is always exercised.
		DeviceConfigs: []DeviceConfig{{Workers: 4}, {Workers: 1}},
		SelfHeal: SelfHealConfig{
			HedgeMinSamples: 1,
			HedgeFloor:      time.Millisecond,
		},
	})
	defer s.Stop()

	// Warm the hedge tracker past its min-samples gate.
	if _, err := s.Submit(context.Background(), &Request{Graph: smallGraph()}); err != nil {
		t.Fatalf("prime Submit: %v", err)
	}
	if got := s.hedge.samples(); got < 1 {
		t.Fatalf("hedge tracker has %d samples after a success", got)
	}

	g := blockerGraph()
	res, err := s.Submit(context.Background(), &Request{Graph: g, NoCache: true})
	if err != nil {
		t.Fatalf("hedged Submit: %v", err)
	}
	if err := color.Verify(g, res.Colors); err != nil {
		t.Fatalf("winning coloring invalid: %v", err)
	}
	if !res.Hedged {
		t.Fatal("response not flagged Hedged")
	}

	st := s.Stats()
	if st.Hedges != 1 {
		t.Fatalf("hedges_total = %d, want 1", st.Hedges)
	}
	if st.HedgeWins+st.HedgeLosses != 1 {
		t.Fatalf("hedge wins %d + losses %d != 1: not exactly one winner", st.HedgeWins, st.HedgeLosses)
	}
	// Exactly one response was counted for the hedged request (prime + hedged).
	if st.Completed != 2 {
		t.Fatalf("completed_total = %d, want 2 — a hedge double-counted", st.Completed)
	}

	// The losing attempt observes its cancellation, and both devices come
	// back to the pool.
	waitFor(t, "loser cancellation", func() bool {
		return s.Metrics().Counter("attempts_canceled_total").Value() == 1
	})
	waitFor(t, "all leases released", func() bool {
		return s.Metrics().Gauge("devices_busy").Value() == 0
	})
	l1, ok1 := s.Pool().TryAcquire()
	l2, ok2 := s.Pool().TryAcquire()
	if !ok1 || !ok2 {
		t.Fatal("a hedge attempt leaked its lease")
	}
	l1.Release()
	l2.Release()
}

// TestDrainCompletesQueuedWork: Drain(0) lets every admitted job finish —
// nothing in flight or queued is dropped.
func TestDrainCompletesQueuedWork(t *testing.T) {
	s := NewServer(Config{Devices: 1})

	errs := make(chan error, 6)
	// One long job occupies the only device...
	go func() {
		_, err := s.Submit(context.Background(), &Request{Graph: blockerGraph(), NoCache: true})
		errs <- err
	}()
	waitFor(t, "blocker to occupy the device", func() bool {
		return s.Metrics().Gauge("devices_busy").Value() == 1
	})
	// ...and five more queue up behind it.
	for i := 0; i < 5; i++ {
		seed := uint32(i + 1)
		go func() {
			_, err := s.Submit(context.Background(), &Request{Graph: smallGraph(), Seed: seed, NoCache: true})
			errs <- err
		}()
	}
	waitFor(t, "five jobs to queue", func() bool { return s.Stats().QueueDepth == 5 })

	sum, err := s.Drain(0)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i := 0; i < 6; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("job dropped during drain: %v", err)
		}
	}
	if sum.TimedOut || sum.HandedOff != 0 {
		t.Fatalf("drain summary %+v, want no timeout and no hand-offs", sum)
	}
	if got := s.Pool().Jobs(0); got != 6 {
		t.Fatalf("device ran %d jobs, want all 6", got)
	}
	if _, err := s.Submit(context.Background(), &Request{Graph: smallGraph(), NoCache: true}); !errors.Is(err, ErrClosed) || !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain: %v, want ErrDraining (wrapping ErrClosed)", err)
	}
}

// TestDrainTimeoutHandsOff: a drain that cannot finish by its deadline
// hands queued jobs back to their callers (never silently drops them) and
// returns a typed DrainTimeoutError.
func TestDrainTimeoutHandsOff(t *testing.T) {
	s := NewServer(Config{Devices: 1})

	blockerErr := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), &Request{Graph: slowBlockerGraph(), NoCache: true})
		blockerErr <- err
	}()
	waitFor(t, "blocker to occupy the device", func() bool {
		return s.Metrics().Gauge("devices_busy").Value() == 1
	})
	queued := make(chan error, 3)
	for i := 0; i < 3; i++ {
		seed := uint32(i + 1)
		go func() {
			_, err := s.Submit(context.Background(), &Request{Graph: smallGraph(), Seed: seed, NoCache: true})
			queued <- err
		}()
	}
	waitFor(t, "three jobs to queue", func() bool { return s.Stats().QueueDepth == 3 })

	sum, err := s.Drain(50 * time.Millisecond)
	var dte *DrainTimeoutError
	if !errors.As(err, &dte) {
		t.Fatalf("Drain error %v, want *DrainTimeoutError", err)
	}
	if !sum.TimedOut || sum.HandedOff != 3 {
		t.Fatalf("drain summary %+v, want timed out with 3 hand-offs", sum)
	}
	for i := 0; i < 3; i++ {
		if err := <-queued; !errors.Is(err, ErrDraining) {
			t.Fatalf("handed-off job error %v, want ErrDraining", err)
		}
	}
	// The in-flight blocker was canceled at the deadline, not stranded.
	if err := <-blockerErr; err == nil {
		t.Fatal("blocker completed despite drain-deadline cancellation")
	}
	if got := s.Metrics().Counter("drain_handoff_total").Value(); got != 3 {
		t.Fatalf("drain_handoff_total = %d, want 3", got)
	}
}

// TestDeadlineInQueueTyped: a job expiring while queued completes its
// flight with the ErrDeadlineInQueue sentinel (still matching the job's
// context error) and is counted by the shed_expired metric. The canceled
// submitter itself returns early on its own context, so the typed error is
// observed through a coalesced waiter whose context is still live.
func TestDeadlineInQueueTyped(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	go s.Submit(context.Background(), &Request{Graph: blockerGraph(), NoCache: true})
	waitFor(t, "blocker to occupy the device", func() bool {
		return s.Metrics().Gauge("devices_busy").Value() == 1
	})
	ctx, cancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		// Owns the job: its context is the job context.
		_, err := s.Submit(ctx, &Request{Graph: smallGraph()})
		ownerErr <- err
	}()
	waitFor(t, "request to queue", func() bool { return s.Stats().QueueDepth >= 1 })
	coalescedErr := make(chan error, 1)
	go func() {
		// Coalesces onto the queued job's flight with a live context.
		_, err := s.Submit(context.Background(), &Request{Graph: smallGraph()})
		coalescedErr <- err
	}()
	waitFor(t, "duplicate to coalesce", func() bool {
		return s.Metrics().Counter("coalesced_total").Value() == 1
	})
	cancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled owner returned %v, want context.Canceled", err)
	}
	err := <-coalescedErr
	if !errors.Is(err, ErrDeadlineInQueue) {
		t.Fatalf("coalesced waiter got %v, want ErrDeadlineInQueue", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v no longer matches the job's context error", err)
	}
	waitFor(t, "shed_expired to be counted", func() bool {
		st := s.Stats()
		return st.ShedExpired == 1 && st.DeadlineExpired == 1
	})
}

// TestDrainzEndpoint: GET reports status, POST requests a drain that the
// daemon observes via DrainRequested, and /metricsz carries the
// self-healing lines.
func TestDrainzEndpoint(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/drainz")
	if code != http.StatusOK || !strings.Contains(body, `"draining":false`) {
		t.Fatalf("GET /drainz = %d %q, want 200 with draining:false", code, body)
	}
	_, body = get("/metricsz")
	for _, want := range []string{"device_health_0", "device_breaker_0", "quarantines_total", "shed_expired", "hedges_total", "draining 0"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metricsz missing %q", want)
		}
	}

	select {
	case <-s.DrainRequested():
		t.Fatal("drain requested before POST /drainz")
	default:
	}
	resp, err := http.Post(ts.URL+"/drainz", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /drainz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /drainz = %d, want 202", resp.StatusCode)
	}
	select {
	case <-s.DrainRequested():
	case <-time.After(time.Second):
		t.Fatal("POST /drainz did not signal DrainRequested")
	}
}

// TestQuarantineAndReadmission drives the full loop in-process: sicken a
// device, watch the breaker open, clear the fault, watch probes re-admit
// it.
func TestQuarantineAndReadmission(t *testing.T) {
	s := NewServer(Config{
		DeviceConfigs: []DeviceConfig{
			{FaultRate: 0.05, FaultSeed: 7, FaultDisarmed: true},
			{},
		},
		SelfHeal: SelfHealConfig{
			FailureThreshold: 2,
			Cooldown:         50 * time.Millisecond,
			MaxCooldown:      200 * time.Millisecond,
			ProbeSuccesses:   2,
		},
	})
	defer s.Stop()

	submit := func(seed uint32) error {
		_, err := s.Submit(context.Background(), &Request{
			Graph: smallGraph(), Seed: seed, NoCache: true,
			NoCPUFallback: true, MaxRetries: -1,
		})
		return err
	}

	s.Pool().FaultInjector(0).Arm()
	var seed uint32
	waitFor(t, "device 0 to be quarantined", func() bool {
		seed++
		_ = submit(seed)
		return s.Pool().BreakerState(0) == BreakerOpen
	})
	if s.Stats().Quarantines < 1 {
		t.Fatal("quarantine not counted")
	}

	s.Pool().FaultInjector(0).Disarm()
	waitFor(t, "device 0 to be re-admitted", func() bool {
		seed++
		_ = submit(seed)
		return s.Pool().BreakerState(0) == BreakerClosed
	})
	st := s.Stats()
	if st.Readmitted < 1 || st.Probes < 1 {
		t.Fatalf("readmitted=%d probes=%d, want both >= 1", st.Readmitted, st.Probes)
	}
	if got := s.Pool().HealthScore(0); got < 0.5 {
		t.Fatalf("re-admitted device health %v, want probation boost >= 0.5", got)
	}
}
