package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/journal"
	"gcolor/internal/netchaos"
	"gcolor/internal/serve"
)

// A standby tailing the primary's journal must take over with zero loss
// of accepted jobs: the accept the primary journaled but never finished
// is re-dispatched by the takeover coordinator, and idempotent replay on
// the new primary answers from the recovered state.
func TestStandbyTakeoverZeroLoss(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	dir := t.TempDir()

	jnl, rec, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 0 {
		t.Fatalf("fresh journal has %d pending", len(rec.Pending))
	}
	lease, err := cluster.AcquireLease(dir, "primary")
	if err != nil {
		t.Fatal(err)
	}
	primary, primaryTS := newTestCoordinator(t, cluster.Config{Journal: jnl, Epoch: lease.Epoch}, w1, w2)

	// One finished job (journaled accept + complete, idempotency-keyed)...
	cr := &serve.ColorRequest{Gen: "grid:12:12", Alg: "baseline", IncludeColors: true}
	res1, code, _ := postColor(t, primaryTS.URL, cr, "job-done", "idem-done")
	if code != http.StatusOK {
		t.Fatalf("primary submit: http %d", code)
	}
	// ...and one accepted-but-unfinished job: the accept record lands in
	// the journal with no completion, exactly what a crash mid-dispatch
	// leaves behind.
	wire, _ := json.Marshal(&serve.ColorRequest{Gen: "grid:9:9", Alg: "baseline"})
	if err := jnl.AppendAccept(journal.AcceptRecord{
		ID: "job-lost", IdemKey: "idem-lost",
		AcceptedUnixMS: time.Now().UnixMilli(),
		Wire:           json.RawMessage(wire),
	}); err != nil {
		t.Fatal(err)
	}

	// The primary dies: server gone, journal closed (flushes everything —
	// FsyncAlways means it already was durable).
	primaryTS.Close()
	primary.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	sb := cluster.NewStandby(cluster.StandbyConfig{
		JournalDir:        dir,
		PrimaryURL:        primaryTS.URL,
		HeartbeatInterval: 20 * time.Millisecond,
		MissThreshold:     2,
		Owner:             "standby-test",
		Journal:           journal.Options{Fsync: journal.FsyncAlways},
		Cluster: cluster.Config{
			Peers:             []string{w1.ts.URL, w2.ts.URL},
			HeartbeatInterval: -1,
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tk, err := sb.Run(ctx)
	if err != nil {
		t.Fatalf("standby run: %v", err)
	}
	defer tk.Journal.Close()
	defer tk.Coordinator.Close()

	if tk.Epoch < 2 {
		t.Fatalf("takeover epoch = %d, want > primary's 1", tk.Epoch)
	}
	if tk.Pending != 1 {
		t.Fatalf("takeover pending = %d, want the 1 lost job", tk.Pending)
	}

	// The lost job replays to completion with no failures.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := tk.Coordinator.Stats()
		if st.RecoveryDone && st.RecoveryReplayed == 1 {
			if st.RecoveryFailed != 0 {
				t.Fatalf("recovery failed %d jobs", st.RecoveryFailed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Idempotent replay on the new primary returns the answer computed
	// before the failover — identical coloring, no recompute.
	ts2 := httptest.NewServer(cluster.Handler(tk.Coordinator))
	defer ts2.Close()
	res2, code, _ := postColor(t, ts2.URL, cr, "job-done-again", "idem-done")
	if code != http.StatusOK {
		t.Fatalf("replay submit: http %d", code)
	}
	if !res2.IdempotentReplay {
		t.Fatalf("idempotent retry on the takeover recomputed instead of replaying")
	}
	if res2.NumColors != res1.NumColors || len(res2.Colors) != len(res1.Colors) {
		t.Fatalf("replayed answer differs: %d/%d colors vs %d/%d",
			res2.NumColors, len(res2.Colors), res1.NumColors, len(res1.Colors))
	}
	for i := range res2.Colors {
		if res2.Colors[i] != res1.Colors[i] {
			t.Fatalf("color[%d] = %d after failover, was %d", i, res2.Colors[i], res1.Colors[i])
		}
	}
	if st := tk.Coordinator.Stats(); st.TakeoverMS <= 0 {
		t.Fatalf("takeover latency not recorded: %+v", st.TakeoverMS)
	}
}

// Workers fence a deposed coordinator: once a dispatch from the new epoch
// ratchets the worker's guard, the old coordinator's calls come back 409
// stale_epoch, and the old coordinator drains itself on that evidence.
func TestEpochFencingDeposesOldCoordinator(t *testing.T) {
	guard := &serve.EpochGuard{}
	srv := serve.NewServer(serve.Config{Devices: 1})
	defer srv.Stop()
	ts := httptest.NewServer(serve.HandlerWith(srv, serve.HandlerConfig{Epoch: guard}))
	defer ts.Close()

	mk := func(epoch uint64) (*cluster.Coordinator, *httptest.Server) {
		c := cluster.NewCoordinator(cluster.Config{
			Peers:             []string{ts.URL},
			Epoch:             epoch,
			HeartbeatInterval: -1,
		})
		h := httptest.NewServer(cluster.Handler(c))
		t.Cleanup(func() { h.Close(); c.Close() })
		return c, h
	}
	oldC, oldTS := mk(1)
	_, newTS := mk(2)

	cr := &serve.ColorRequest{Gen: "grid:8:8", Alg: "baseline", NoCache: true}
	if _, code, _ := postColor(t, oldTS.URL, cr, "pre", ""); code != http.StatusOK {
		t.Fatalf("old coordinator pre-takeover: http %d", code)
	}
	// The new primary dispatches, ratcheting the worker to epoch 2.
	if _, code, _ := postColor(t, newTS.URL, cr, "new", ""); code != http.StatusOK {
		t.Fatalf("new coordinator: http %d", code)
	}
	if got := guard.Current(); got != 2 {
		t.Fatalf("worker epoch = %d, want 2", got)
	}
	// The old primary is now fenced at the worker, and learns it.
	_, code, kind := postColor(t, oldTS.URL, cr, "stale", "")
	if code != http.StatusConflict || kind != "stale_epoch" {
		t.Fatalf("stale dispatch: http %d kind %q, want 409 stale_epoch", code, kind)
	}
	if !oldC.Fenced() {
		t.Fatalf("old coordinator did not fence itself")
	}
	if _, code, kind = postColor(t, oldTS.URL, cr, "post-fence", ""); code != http.StatusServiceUnavailable || kind != "draining" {
		t.Fatalf("fenced coordinator still accepting: http %d kind %q", code, kind)
	}
	// And a stale join is refused with the typed conflict.
	if _, err := oldC.Join(cluster.JoinRequest{Addr: ts.URL, Epoch: 5}); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("higher-epoch join accepted by stale coordinator: %v", err)
	}
}

// A worker that still answers 2xx but 10x slower than its peer must lose
// its rendezvous rank (gray demotion) while its breaker stays closed:
// slowness is load imbalance, not failure.
func TestGrayWorkerLosesRendezvousRank(t *testing.T) {
	fast1 := newTestWorker(t, serve.Config{})
	fast2 := newTestWorker(t, serve.Config{})
	slow := newTestWorker(t, serve.Config{})

	// The gray signal is latency versus the FLEET median, so the fleet
	// needs a fast majority for the slow member to stand out — exactly the
	// production shape (one sick node among healthy peers).
	const slowdown = 150 * time.Millisecond
	in := netchaos.New(1)
	in.SlowHost(strings.TrimPrefix(slow.ts.URL, "http://"), slowdown)
	client := &http.Client{Transport: in.Transport(http.DefaultTransport)}

	coord, tsC := newTestCoordinator(t, cluster.Config{Client: client}, fast1, fast2, slow)
	// The health scores see each dispatch as 1 ms of work plus the
	// slow-down injected on its link. Measured round trips would make the
	// signal the host's speed: an EWMA score settles at the mean reward,
	// slack x fleet median / exec, so a member turns gray only past
	// slack / grayScore = 8x the fleet median, and that median (the slow
	// member's own share included) sat at about 28 ms under -race on a
	// busy 2-vCPU host, putting 150 ms + 28 ms at about 6x.
	cluster.SetHealthLatency(coord, func(addr string, _ time.Duration) time.Duration {
		if addr == slow.ts.URL {
			return time.Millisecond + slowdown
		}
		return time.Millisecond
	})

	for i := 0; i < 60; i++ {
		cr := &serve.ColorRequest{Gen: fmt.Sprintf("grid:%d:%d", 8+i%8, 9+i%5), Alg: "baseline", NoCache: true}
		if _, code, kind := postColor(t, tsC.URL, cr, fmt.Sprintf("gray-%d", i), ""); code != http.StatusOK {
			t.Fatalf("job %d: http %d %s", i, code, kind)
		}
	}
	st := coord.Stats()
	if st.GrayDemotions == 0 {
		t.Fatalf("no gray demotions after 60 jobs against a slowed worker: %+v", st)
	}
	if st.Quarantines != 0 {
		t.Fatalf("breaker tripped on a slow-but-healthy worker (%d quarantines)", st.Quarantines)
	}
	var sawGray bool
	for _, m := range st.Members {
		if m.Addr == slow.ts.URL && m.Gray {
			sawGray = true
		}
		if (m.Addr == fast1.ts.URL || m.Addr == fast2.ts.URL) && m.Gray {
			t.Fatalf("fast worker marked gray: %+v", m)
		}
	}
	if !sawGray {
		t.Fatalf("slow worker not marked gray: %+v", st.Members)
	}
}

// Overload replies carry a Retry-After the client can act on: a worker's
// own hint passes through verbatim; a coordinator-local rejection
// (draining) computes one from fleet load.
func TestRetryAfterPropagation(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/color" {
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full","kind":"queue_full"}`)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer busy.Close()

	coord := cluster.NewCoordinator(cluster.Config{
		Peers:             []string{busy.URL},
		HeartbeatInterval: -1,
	})
	defer coord.Close()
	tsC := httptest.NewServer(cluster.Handler(coord))
	defer tsC.Close()

	body, _ := json.Marshal(&serve.ColorRequest{Gen: "grid:8:8", Alg: "baseline", NoCache: true})
	resp, err := http.Post(tsC.URL+"/color", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("http %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want the worker's own hint 7", got)
	}

	// Draining: coordinator-local rejection computes its own hint.
	coord.RequestDrain()
	resp, err = http.Post(tsC.URL+"/color", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: http %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatalf("draining reply missing Retry-After")
	}
}
