package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/journal"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
)

// testWorker is one in-process fleet node: a real serving stack behind a
// recording wrapper that can inject a single 5xx on demand.
type testWorker struct {
	srv *serve.Server
	ts  *httptest.Server

	mu         sync.Mutex
	colorRIDs  []string
	failSuffix string // fail the next /color whose request ID has this suffix
	failed     int
}

func newTestWorker(t *testing.T, cfg serve.Config) *testWorker {
	t.Helper()
	if cfg.Devices == 0 && len(cfg.DeviceConfigs) == 0 {
		cfg.Devices = 1
	}
	w := &testWorker{srv: serve.NewServer(cfg)}
	inner := serve.Handler(w.srv)
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/color" {
			rid := r.Header.Get("X-Request-ID")
			w.mu.Lock()
			w.colorRIDs = append(w.colorRIDs, rid)
			fail := w.failSuffix != "" && strings.HasSuffix(rid, w.failSuffix)
			if fail {
				w.failSuffix = "" // one-shot
				w.failed++
			}
			w.mu.Unlock()
			if fail {
				rw.Header().Set("Content-Type", "application/json")
				rw.WriteHeader(http.StatusInternalServerError)
				fmt.Fprint(rw, `{"error":"injected fault","kind":"boom"}`)
				return
			}
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		w.ts.Close()
		w.srv.Stop()
	})
	return w
}

func (w *testWorker) ridCount(rid string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, r := range w.colorRIDs {
		if r == rid {
			n++
		}
	}
	return n
}

func (w *testWorker) armFail(suffix string) {
	w.mu.Lock()
	w.failSuffix = suffix
	w.mu.Unlock()
}

// newTestCoordinator stands up a coordinator over the given workers with
// background probing disabled so tests are deterministic: liveness comes
// from static registration and job outcomes only.
func newTestCoordinator(t *testing.T, cfg cluster.Config, workers ...*testWorker) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	for _, w := range workers {
		cfg.Peers = append(cfg.Peers, w.ts.URL)
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = -1
	}
	coord := cluster.NewCoordinator(cfg)
	ts := httptest.NewServer(cluster.Handler(coord))
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return coord, ts
}

// postColor sends one /color request with optional request-ID and
// idempotency headers and decodes either the response or the typed error.
func postColor(t *testing.T, coordURL string, cr *serve.ColorRequest, rid, idemKey string) (*serve.ColorResponse, int, string) {
	t.Helper()
	body, err := json.Marshal(cr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, coordURL+"/color", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		b, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(b, &er)
		return nil, resp.StatusCode, er.Kind
	}
	var cresp serve.ColorResponse
	if err := json.NewDecoder(resp.Body).Decode(&cresp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &cresp, resp.StatusCode, ""
}

// Whole-graph jobs route to one worker; the second identical request is a
// coordinator cache hit and an Idempotency-Key replays without recoloring.
func TestRouteCacheAndIdempotency(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w)

	cr := &serve.ColorRequest{Gen: "grid:12:12", Alg: "baseline", IncludeColors: true}
	first, code, kind := postColor(t, ts.URL, cr, "route-1", "")
	if first == nil {
		t.Fatalf("first request failed: %d %s", code, kind)
	}
	if first.Worker != w.ts.URL {
		t.Fatalf("Worker = %q, want %q", first.Worker, w.ts.URL)
	}
	if first.Cached || first.Scattered {
		t.Fatalf("first response cached=%v scattered=%v, want neither", first.Cached, first.Scattered)
	}
	if first.NumColors < 2 {
		t.Fatalf("grid coloring used %d colors", first.NumColors)
	}

	second, _, _ := postColor(t, ts.URL, cr, "route-2", "")
	if second == nil || !second.Cached {
		t.Fatalf("second identical request not served from coordinator cache: %+v", second)
	}

	withKey := &serve.ColorRequest{Gen: "grid:13:13", Alg: "baseline", IncludeColors: true}
	a, _, _ := postColor(t, ts.URL, withKey, "idem-1", "key-abc")
	if a == nil {
		t.Fatal("keyed request failed")
	}
	b, _, _ := postColor(t, ts.URL, withKey, "idem-2", "key-abc")
	if b == nil || !b.IdempotentReplay {
		t.Fatalf("repeat with same Idempotency-Key not replayed: %+v", b)
	}

	st := coord.Stats()
	if st.Jobs < 2 || st.Routed < 2 {
		t.Fatalf("stats jobs=%d routed=%d, want >= 2 each", st.Jobs, st.Routed)
	}
	if st.CacheHits < 1 {
		t.Fatalf("stats cache_hits=%d, want >= 1", st.CacheHits)
	}
}

// When the rendezvous owner dies mid-fleet the job fails over to another
// worker instead of failing the client.
func TestRouteFailoverOnDeadWorker(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w1, w2)

	// Learn which worker owns this fingerprint, then kill exactly that one.
	cr := &serve.ColorRequest{Gen: "grid:10:10", Alg: "baseline", NoCache: true}
	probe, code, kind := postColor(t, ts.URL, cr, "fo-probe", "")
	if probe == nil {
		t.Fatalf("probe failed: %d %s", code, kind)
	}
	victim, survivor := w1, w2
	if probe.Worker == w2.ts.URL {
		victim, survivor = w2, w1
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	got, code, kind := postColor(t, ts.URL, cr, "fo-1", "")
	if got == nil {
		t.Fatalf("post-kill request failed: %d %s", code, kind)
	}
	if got.Worker != survivor.ts.URL {
		t.Fatalf("post-kill job served by %q, want survivor %q", got.Worker, survivor.ts.URL)
	}
	if got.Redispatched < 1 {
		t.Fatalf("Redispatched = %d, want >= 1 (first attempt hit the dead owner)", got.Redispatched)
	}
	if st := coord.Stats(); st.RouteFailovers < 1 {
		t.Fatalf("stats route_failovers = %d, want >= 1", st.RouteFailovers)
	}
}

// A worker answering 5xx mid-scatter gets its shard re-dispatched exactly
// once, to a different worker, and the job still succeeds.
func TestScatterRedispatchExactlyOnce(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w1, w2)

	cr := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 2, NoCache: true, IncludeColors: true}

	// Dry run to learn the (stable) shard-to-worker assignment.
	dry, code, kind := postColor(t, ts.URL, cr, "dry", "")
	if dry == nil || !dry.Scattered {
		t.Fatalf("dry run not scattered: resp=%+v code=%d kind=%s", dry, code, kind)
	}
	owner, other := w1, w2
	if w2.ridCount("dry-s0") == 1 {
		owner, other = w2, w1
	}
	if owner.ridCount("dry-s0") != 1 {
		t.Fatalf("dry run: shard 0 served by neither worker exactly once (w1=%d w2=%d)",
			w1.ridCount("dry-s0"), w2.ridCount("dry-s0"))
	}

	// Same fingerprint, same fleet: shard 0 lands on the same owner, which
	// now rejects it once with a 500.
	owner.armFail("-s0")
	got, code, kind := postColor(t, ts.URL, cr, "redo", "")
	if got == nil {
		t.Fatalf("scatter with injected fault failed: %d %s", code, kind)
	}
	if !got.Scattered {
		t.Fatal("response not scattered")
	}
	if got.Redispatched != 1 {
		t.Fatalf("Redispatched = %d, want exactly 1", got.Redispatched)
	}
	if n := owner.ridCount("redo-s0"); n != 1 {
		t.Fatalf("faulted worker saw shard 0 %d times, want exactly 1", n)
	}
	if n := other.ridCount("redo-s0"); n != 1 {
		t.Fatalf("re-dispatch target saw shard 0 %d times, want exactly 1", n)
	}
	if st := coord.Stats(); st.Redispatches != 1 {
		t.Fatalf("stats redispatches = %d, want exactly 1", st.Redispatches)
	}
}

// Shard sub-jobs are sent no-cache: only the coordinator's LRU may hold
// the merged result, so a re-scatter never reassembles stale shards and
// worker memory is not spent on partial colorings.
func TestScatterNoDoubleCache(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w1, w2)

	cr := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 2, IncludeColors: true}
	got, code, kind := postColor(t, ts.URL, cr, "nc-1", "")
	if got == nil || !got.Scattered {
		t.Fatalf("scatter failed: resp=%+v code=%d kind=%s", got, code, kind)
	}

	st := coord.Stats()
	if st.CacheEntries != 1 {
		t.Fatalf("coordinator cache holds %d entries, want exactly the merged result", st.CacheEntries)
	}
	for i, w := range []*testWorker{w1, w2} {
		if n := w.srv.Stats().CacheEntries; n != 0 {
			t.Fatalf("worker %d cached %d shard sub-results, want 0 (sub-jobs must carry no-cache)", i, n)
		}
	}

	// The repeat is answered from the coordinator cache without touching
	// the fleet again.
	before := w1.ridCount("again-s0") + w2.ridCount("again-s0")
	again, _, _ := postColor(t, ts.URL, cr, "again", "")
	if again == nil || !again.Cached {
		t.Fatalf("repeat scatter not served from coordinator cache: %+v", again)
	}
	after := w1.ridCount("again-s0") + w2.ridCount("again-s0")
	if before != after {
		t.Fatal("cached repeat still dispatched shards to workers")
	}
}

// The originating request ID crosses the coordinator into every worker's
// journal: whole-graph jobs keep the client's ID verbatim, shard sub-jobs
// record it with an -s<i> suffix, and the Idempotency-Key rides along on
// whole-graph routes.
func TestRequestIDPropagatesIntoWorkerJournal(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	j1, _, err := journal.Open(dir1, journal.Options{})
	if err != nil {
		t.Fatalf("open journal 1: %v", err)
	}
	j2, _, err := journal.Open(dir2, journal.Options{})
	if err != nil {
		t.Fatalf("open journal 2: %v", err)
	}
	w1 := newTestWorker(t, serve.Config{Journal: j1})
	w2 := newTestWorker(t, serve.Config{Journal: j2})
	_, ts := newTestCoordinator(t, cluster.Config{}, w1, w2)

	whole := &serve.ColorRequest{Gen: "grid:11:11", Alg: "baseline", NoCache: true}
	if got, code, kind := postColor(t, ts.URL, whole, "req-whole", "idem-xyz"); got == nil {
		t.Fatalf("whole-graph job failed: %d %s", code, kind)
	}
	scat := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 2, NoCache: true, IncludeColors: true}
	if got, code, kind := postColor(t, ts.URL, scat, "req-scat", ""); got == nil || !got.Scattered {
		t.Fatalf("scattered job failed: resp=%+v code=%d kind=%s", got, code, kind)
	}

	// Quiesce the workers, close the journals, and replay them cold — the
	// same path a restarted worker would take.
	w1.srv.Stop()
	w2.srv.Stop()
	if err := j1.Close(); err != nil {
		t.Fatalf("close journal 1: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("close journal 2: %v", err)
	}
	ids := map[string]string{} // rid -> idem key, across both worker journals
	for _, dir := range []string{dir1, dir2} {
		j, rec, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatalf("reopen journal %s: %v", dir, err)
		}
		for _, cmp := range rec.Completions {
			ids[cmp.ID] = cmp.IdemKey
		}
		j.Close()
	}

	if idem, ok := ids["req-whole"]; !ok {
		t.Fatalf("no worker journal recorded the originating request ID %q (have %v)", "req-whole", keys(ids))
	} else if idem != "idem-xyz" {
		t.Fatalf("journal idem key for req-whole = %q, want %q", idem, "idem-xyz")
	}
	for i := 0; i < 2; i++ {
		srid := fmt.Sprintf("req-scat-s%d", i)
		idem, ok := ids[srid]
		if !ok {
			t.Fatalf("no worker journal recorded shard request ID %q (have %v)", srid, keys(ids))
		}
		// Forwarding the client key onto shards would collide K sub-jobs
		// on one idempotency slot; it must stay at the coordinator.
		if idem != "" {
			t.Fatalf("shard %s carried idem key %q, want none", srid, idem)
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Dynamic membership: a fleet of zero rejects with no_workers, a join via
// the HTTP surface brings capacity online without a restart.
func TestJoinGrowsFleet(t *testing.T) {
	coord, ts := newTestCoordinator(t, cluster.Config{})

	cr := &serve.ColorRequest{Gen: "grid:10:10", Alg: "baseline"}
	if got, code, kind := postColor(t, ts.URL, cr, "j-1", ""); got != nil || code != http.StatusServiceUnavailable || kind != "no_workers" {
		t.Fatalf("empty fleet answered resp=%v code=%d kind=%q, want 503 no_workers", got, code, kind)
	}

	w := newTestWorker(t, serve.Config{})
	body, _ := json.Marshal(map[string]string{"addr": w.ts.URL})
	resp, err := http.Post(ts.URL+"/cluster/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status = %d", resp.StatusCode)
	}
	if st := coord.Stats(); st.Workers != 1 || st.Joins != 1 {
		t.Fatalf("after join workers=%d joins=%d, want 1/1", st.Workers, st.Joins)
	}
	if got, code, kind := postColor(t, ts.URL, cr, "j-2", ""); got == nil {
		t.Fatalf("post-join request failed: %d %s", code, kind)
	}
}

// A draining coordinator refuses new work with the same typed error the
// serving layer uses, so rolling restarts look identical fleet-wide — but,
// like a worker, it still answers what it can from memory: idempotent
// retries and cache hits.
func TestDrainRefusesNewWork(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w)

	cached := &serve.ColorRequest{Gen: "grid:11:11", Alg: "baseline"}
	if got, code, kind := postColor(t, ts.URL, cached, "d-seed", ""); got == nil {
		t.Fatalf("seed request failed: %d %s", code, kind)
	}
	keyed := &serve.ColorRequest{Gen: "grid:12:11", Alg: "baseline", NoCache: true}
	if got, code, kind := postColor(t, ts.URL, keyed, "d-keyed", "drain-key"); got == nil {
		t.Fatalf("keyed request failed: %d %s", code, kind)
	}

	coord.RequestDrain()
	cr := &serve.ColorRequest{Gen: "grid:10:10", Alg: "baseline"}
	got, code, kind := postColor(t, ts.URL, cr, "d-1", "")
	if got != nil || code != http.StatusServiceUnavailable || kind != "draining" {
		t.Fatalf("draining coordinator answered resp=%v code=%d kind=%q, want 503 draining", got, code, kind)
	}
	if got, code, kind := postColor(t, ts.URL, keyed, "d-retry", "drain-key"); got == nil || !got.IdempotentReplay {
		t.Fatalf("idempotent retry during drain: resp=%+v code=%d kind=%q, want a replay", got, code, kind)
	}
	if got, code, kind := postColor(t, ts.URL, cached, "d-hit", ""); got == nil || !got.Cached {
		t.Fatalf("cache hit during drain: resp=%+v code=%d kind=%q, want a hit", got, code, kind)
	}
}

// Crash-safety: a coordinator restarted over its journal warm-starts the
// merged-result cache and answers the repeat without touching the fleet —
// also after the journal compacted from the coordinator's own snapshot.
func TestCoordinatorJournalWarmStart(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := journal.Open(dir, journal.Options{SegmentBytes: 2 << 10, CompactAfterSegments: -1})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	w := newTestWorker(t, serve.Config{})

	coord1, ts1 := newTestCoordinator(t, cluster.Config{Journal: j, Recovery: rec}, w)
	cr := &serve.ColorRequest{Gen: "grid:12:12", Alg: "baseline", IncludeColors: true}
	if got, code, kind := postColor(t, ts1.URL, cr, "warm-1", ""); got == nil {
		t.Fatalf("seed request failed: %d %s", code, kind)
	}
	// Enough further jobs to seal several segments.
	for i := 0; i < 24; i++ {
		more := &serve.ColorRequest{Gen: fmt.Sprintf("grid:%d:9", 5+i), Alg: "baseline"}
		if got, code, kind := postColor(t, ts1.URL, more, fmt.Sprintf("fill-%d", i), ""); got == nil {
			t.Fatalf("fill request %d failed: %d %s", i, code, kind)
		}
	}
	if st := j.Stats(); st.LiveSegments < 3 {
		t.Fatalf("live segments before compaction = %d, want several", st.LiveSegments)
	}
	if err := j.Compact(); err != nil {
		t.Fatalf("compact a coordinator journal: %v", err)
	}
	if st := j.Stats(); st.LiveSegments != 1 {
		t.Fatalf("live segments after compaction = %d, want 1", st.LiveSegments)
	}
	ts1.Close()
	coord1.Close()
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	j2, rec2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j2.Close()
	if !rec2.Stats.SnapshotLoaded {
		t.Fatal("restart did not load the compaction snapshot")
	}
	coord2, ts2 := newTestCoordinator(t, cluster.Config{Journal: j2, Recovery: rec2}, w)
	if st := coord2.Stats(); st.WarmedCache < 1 {
		t.Fatalf("restarted coordinator warmed %d cache entries, want >= 1", st.WarmedCache)
	}
	jobsBefore := w.ridCount("warm-2")
	got, _, _ := postColor(t, ts2.URL, cr, "warm-2", "")
	if got == nil || !got.Cached {
		t.Fatalf("repeat after restart not a warm cache hit: %+v", got)
	}
	if w.ridCount("warm-2") != jobsBefore {
		t.Fatal("warm cache hit still dispatched to a worker")
	}
}

// Answers the coordinator hands out are the caller's own: mutating the
// colors of a miss, a hit or an idempotent replay must not change what the
// next caller gets.
func TestCoordinatorAnswersArePrivate(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, _ := newTestCoordinator(t, cluster.Config{}, w)
	ctx := context.Background()
	cr := &serve.ColorRequest{Gen: "grid:9:9", Alg: "baseline"}

	miss, err := coord.Submit(ctx, cr, "priv-1", "priv-key", nil)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached || len(miss.Colors) != 81 {
		t.Fatalf("first answer cached=%v with %d colors, want a miss over 81 vertices", miss.Cached, len(miss.Colors))
	}
	want := slices.Clone(miss.Colors)
	for i := 0; i < 3; i++ {
		for v := range miss.Colors {
			miss.Colors[v] = -7 // callers may trash what they receive
		}
		hit, err := coord.Submit(ctx, cr, fmt.Sprintf("priv-hit-%d", i), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := coord.Submit(ctx, cr, fmt.Sprintf("priv-replay-%d", i), "priv-key", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached || !replay.IdempotentReplay {
			t.Fatalf("round %d: hit cached=%v, replay idempotent=%v", i, hit.Cached, replay.IdempotentReplay)
		}
		if !slices.Equal(hit.Colors, want) || !slices.Equal(replay.Colors, want) {
			t.Fatalf("round %d: a stored answer changed after a caller mutated its copy", i)
		}
		miss = hit
		for v := range replay.Colors {
			replay.Colors[v] = -9
		}
	}
}

// The shard count is part of the cache key: after a 2-shard scatter of a
// graph, a request pinned to one shard runs whole instead of being handed
// the cached 2-shard coloring.
func TestShardPinKeysCache(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	_, ts := newTestCoordinator(t, cluster.Config{}, w1, w2)

	two := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 2, IncludeColors: true}
	if got, code, kind := postColor(t, ts.URL, two, "pin-2", ""); got == nil || !got.Scattered {
		t.Fatalf("2-shard request not scattered: resp=%+v code=%d kind=%s", got, code, kind)
	}
	one := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 1, IncludeColors: true}
	got, code, kind := postColor(t, ts.URL, one, "pin-1", "")
	if got == nil {
		t.Fatalf("1-shard request failed: %d %s", code, kind)
	}
	if got.Scattered || got.Cached || got.Worker == "" {
		t.Fatalf("1-shard request answered scattered=%v cached=%v worker=%q, want a whole-graph route", got.Scattered, got.Cached, got.Worker)
	}
	again, _, _ := postColor(t, ts.URL, two, "pin-2-again", "")
	if again == nil || !again.Cached || !again.Scattered {
		t.Fatalf("2-shard repeat not its own cached scatter: %+v", again)
	}
}

// Concurrent identical misses share one fleet execution: each caller is
// the leader, a coalesced follower or a later cache hit, so the worker
// sees the job once and every caller gets the same coloring.
func TestCoordinatorCoalescesConcurrentMisses(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, _ := newTestCoordinator(t, cluster.Config{}, w)
	cr := &serve.ColorRequest{Gen: "grid:40:40", Alg: "baseline"}

	const callers = 8
	start := make(chan struct{})
	answers := make([][]int32, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := coord.Submit(context.Background(), cr, fmt.Sprintf("co-%d", i), "", nil)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			answers[i] = res.Colors
		}(i)
	}
	close(start)
	wg.Wait()
	w.mu.Lock()
	calls := len(w.colorRIDs)
	w.mu.Unlock()
	if calls != 1 {
		t.Fatalf("worker saw %d /color calls for %d identical concurrent requests, want 1", calls, callers)
	}
	for i := 1; i < callers; i++ {
		if !slices.Equal(answers[i], answers[0]) {
			t.Fatalf("caller %d got a different coloring", i)
		}
	}
}

// gatedWorker fronts a real worker with a gate: every /color call is
// announced on arrived, then held until open is called (at the latest when
// the test ends).
func gatedWorker(t *testing.T, w *testWorker) (url string, arrived <-chan string, open func()) {
	t.Helper()
	ch := make(chan string, 64)
	release := make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(release) }) }
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/color" {
			ch <- r.Header.Get("X-Request-ID")
			<-release
		}
		w.ts.Config.Handler.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		open()
		ts.Close()
	})
	return ts.URL, ch, open
}

// nextArrival waits for the gated worker's next /color call.
func nextArrival(t *testing.T, arrived <-chan string) string {
	t.Helper()
	select {
	case rid := <-arrived:
		return rid
	case <-time.After(20 * time.Second):
		t.Fatal("no /color call reached the gated worker")
		return ""
	}
}

// journalPending writes accepts for ids, still pending, into a journal in
// dir, then settled filler jobs until at least segments segments are
// sealed, and closes it.
func journalPending(t *testing.T, dir string, opt journal.Options, segments int, ids ...string) {
	t.Helper()
	j, _, err := journal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		wire, _ := json.Marshal(&serve.ColorRequest{Gen: fmt.Sprintf("grid:7:%d", 5+i), Alg: "baseline"})
		if err := j.AppendAccept(journal.AcceptRecord{ID: id, Fingerprint: uint64(i + 1), AcceptedUnixMS: time.Now().UnixMilli(), Wire: wire}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; j.Stats().LiveSegments <= segments; i++ {
		id := fmt.Sprintf("filler-%d", i)
		if err := j.AppendAccept(journal.AcceptRecord{ID: id, AcceptedUnixMS: time.Now().UnixMilli(), Wire: []byte(`{"gen":"grid:3:3"}`)}); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendComplete(journal.CompleteRecord{ID: id, Disposition: journal.DispFailed, ErrKind: "failed"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// pendingIDs reads dir as a restart would and returns its pending job IDs.
func pendingIDs(t *testing.T, dir string) []string {
	t.Helper()
	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var ids []string
	for _, p := range rec.Pending {
		ids = append(ids, p.ID)
	}
	slices.Sort(ids)
	return ids
}

// waitRecovered waits for the coordinator's startup replay to finish.
func waitRecovered(t *testing.T, coord *cluster.Coordinator) cluster.Stats {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := coord.Stats()
		if st.RecoveryDone {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A compaction while a restarted coordinator is still replaying its
// recovered jobs keeps their accepts: the journal on disk right after it
// still lists every job not yet settled, in flight or waiting its turn.
func TestCoordinatorCompactionKeepsPendingReplays(t *testing.T) {
	dir := t.TempDir()
	opt := journal.Options{SegmentBytes: 1 << 10, CompactAfterSegments: -1}
	ids := []string{"pend-0", "pend-1", "pend-2", "pend-3", "pend-4", "pend-5"}
	journalPending(t, dir, opt, 5, ids...)

	j, rec, err := journal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != len(ids) || j.Stats().LiveSegments < 5 {
		t.Fatalf("set-up: %d pending over %d segments", len(rec.Pending), j.Stats().LiveSegments)
	}
	url, arrived, open := gatedWorker(t, newTestWorker(t, serve.Config{}))
	coord, _ := newTestCoordinator(t, cluster.Config{Peers: []string{url}, Journal: j, Recovery: rec, ReplayParallelism: 2})
	nextArrival(t, arrived)
	nextArrival(t, arrived)

	if err := j.Compact(); err != nil {
		t.Fatalf("compact mid-replay: %v", err)
	}
	if st := j.Stats(); st.LiveSegments != 1 {
		t.Fatalf("live segments after compaction = %d, want 1", st.LiveSegments)
	}
	crashed := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := pendingIDs(t, crashed); !slices.Equal(got, ids) {
		t.Fatalf("a crash after the mid-replay compaction recovers %v, want %v", got, ids)
	}

	open()
	if st := waitRecovered(t, coord); st.RecoveryReplayed != int64(len(ids)) || st.RecoveryFailed != 0 {
		t.Fatalf("replay settled %d (failed %d), want %d", st.RecoveryReplayed, st.RecoveryFailed, len(ids))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pendingIDs(t, dir); len(got) != 0 {
		t.Fatalf("replayed jobs still pending: %v", got)
	}
}

// A drain that starts mid-replay lets the running replay finish and leaves
// the jobs not yet started pending in the journal: no client holds a
// replayed job, so only the next start can run them.
func TestDrainMidReplayKeepsPending(t *testing.T) {
	dir := t.TempDir()
	opt := journal.Options{}
	journalPending(t, dir, opt, 0, "first", "second", "third")
	j, rec, err := journal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	url, arrived, open := gatedWorker(t, newTestWorker(t, serve.Config{}))
	coord, _ := newTestCoordinator(t, cluster.Config{Peers: []string{url}, Journal: j, Recovery: rec, ReplayParallelism: 1})
	if rid := nextArrival(t, arrived); rid != "first" {
		t.Fatalf("first replay dispatched as %q", rid)
	}
	coord.RequestDrain()
	open()
	if st := waitRecovered(t, coord); st.RecoveryReplayed != 1 || st.RecoveryFailed != 0 {
		t.Fatalf("replay settled %d (failed %d), want only the running one", st.RecoveryReplayed, st.RecoveryFailed)
	}
	if left := coord.Drain(context.Background()); left != 0 {
		t.Fatalf("drain left %d in flight", left)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := pendingIDs(t, dir), []string{"second", "third"}; !slices.Equal(got, want) {
		t.Fatalf("pending after a drain mid-replay = %v, want %v", got, want)
	}
}

// An auto-scattered answer is cached under the request, not the fleet's
// size: after a worker joins, the repeat is still a hit.
func TestAutoScatterHitSurvivesJoin(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{Shard: shard.Policy{AutoVertices: 100}}, w1, w2)

	cr := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline"}
	if got, code, kind := postColor(t, ts.URL, cr, "auto-1", ""); got == nil || !got.Scattered {
		t.Fatalf("auto request not scattered: resp=%+v code=%d kind=%s", got, code, kind)
	}
	w3 := newTestWorker(t, serve.Config{})
	coord.JoinAddr(w3.ts.URL)
	if n := coord.Stats().AliveWorkers; n != 3 {
		t.Fatalf("alive workers after join = %d, want 3", n)
	}
	got, _, _ := postColor(t, ts.URL, cr, "auto-2", "")
	if got == nil || !got.Cached || !got.Scattered {
		t.Fatalf("auto repeat after a join not the cached scatter: %+v", got)
	}
	if st := coord.Stats(); st.Scattered != 1 {
		t.Fatalf("scattered %d times, want 1", st.Scattered)
	}
}

// A negative shard count runs whole, as one does: the coordinator routes
// it instead of scattering it, and caches it under the whole-graph key, so
// a later auto request for the graph is scattered, not handed that answer.
func TestShardPinNegativeRunsWhole(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	_, ts := newTestCoordinator(t, cluster.Config{Shard: shard.Policy{AutoVertices: 100}}, w1, w2)

	neg := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: -1}
	got, code, kind := postColor(t, ts.URL, neg, "neg-1", "")
	if got == nil || got.Scattered || got.Shards > 1 || got.Worker == "" {
		t.Fatalf("shards -1 answered %+v (code=%d kind=%s), want a whole-graph route", got, code, kind)
	}
	one := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 1}
	if got, _, _ := postColor(t, ts.URL, one, "neg-one", ""); got == nil || !got.Cached || got.Scattered {
		t.Fatalf("shards 1 after shards -1 answered %+v, want the cached whole-graph answer", got)
	}
	auto := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline"}
	if got, code, kind := postColor(t, ts.URL, auto, "neg-auto", ""); got == nil || got.Cached || !got.Scattered {
		t.Fatalf("auto request after shards -1 answered %+v (code=%d kind=%s), want a fresh scatter", got, code, kind)
	}
}

// With scatter off, an auto request may still come back sharded by the
// worker it was routed to; a request pinned to one shard is not handed
// that answer.
func TestShardPinNotAnsweredByWorkerShardedAuto(t *testing.T) {
	w := newTestWorker(t, serve.Config{Devices: 2, Shard: serve.ShardConfig{AutoVertices: 100}})
	_, ts := newTestCoordinator(t, cluster.Config{Shard: shard.Policy{Disabled: true}}, w)

	auto := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline"}
	if got, code, kind := postColor(t, ts.URL, auto, "wauto-1", ""); got == nil || got.Scattered || got.Shards != 2 {
		t.Fatalf("auto request not sharded by its worker: resp=%+v code=%d kind=%s", got, code, kind)
	}
	one := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 1}
	got, code, kind := postColor(t, ts.URL, one, "wpin-1", "")
	if got == nil || got.Cached || got.Shards > 1 {
		t.Fatalf("1-shard request answered %+v (code=%d kind=%s), want a whole-graph run", got, code, kind)
	}
}

// At the admission cap a miss is refused with 429 fleet_busy and a
// Retry-After, while a cache hit is still answered: the cap sheds work at
// the fleet's edge, never what the coordinator can answer from memory.
func TestFleetBusyRefusesMissesNotHits(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w)
	// post returns the reply's status, Retry-After, error kind and whether
	// it was a cache hit.
	post := func(cr *serve.ColorRequest) (code int, retryAfter, kind string, cached bool) {
		t.Helper()
		body, _ := json.Marshal(cr)
		resp, err := http.Post(ts.URL+"/color", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Kind   string `json:"kind"`
			Cached bool   `json:"cached"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, resp.Header.Get("Retry-After"), out.Kind, out.Cached
	}
	seed := &serve.ColorRequest{Gen: "grid:9:9", Alg: "baseline"}
	miss := &serve.ColorRequest{Gen: "grid:10:9", Alg: "baseline"}
	if code, _, kind, _ := post(seed); code != http.StatusOK {
		t.Fatalf("seed request: http %d %s", code, kind)
	}

	cluster.AddInflight(coord, cluster.MaxInflight)
	if code, retryAfter, kind, _ := post(miss); code != http.StatusTooManyRequests || kind != "fleet_busy" || retryAfter == "" {
		t.Fatalf("miss at the cap: http %d %s, Retry-After %q; want 429 fleet_busy with a Retry-After", code, kind, retryAfter)
	}
	// The seed's graph in another body misses the request memo and is
	// answered from the cache on the full path.
	hit := *seed
	hit.IncludeColors = true
	if code, _, kind, cached := post(&hit); code != http.StatusOK || !cached {
		t.Fatalf("cache hit at the cap: http %d %s, cached %v; want a 200 cache hit", code, kind, cached)
	}
	if st := coord.Stats(); st.Shed != 1 {
		t.Fatalf("shed %d, want the one miss", st.Shed)
	}

	cluster.AddInflight(coord, -cluster.MaxInflight)
	if code, _, kind, _ := post(miss); code != http.StatusOK {
		t.Fatalf("miss below the cap: http %d %s, want 200", code, kind)
	}
}
