package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/journal"
)

func openTestJournal(t *testing.T, dir string) (*journal.Journal, *journal.Recovery) {
	t.Helper()
	j, rec, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	return j, rec
}

func postColorHeaders(t *testing.T, ts *httptest.Server, body ColorRequest, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/color", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		checkReplyIsEncodingJSON(t, buf.Bytes())
	}
	return resp, buf.Bytes()
}

// TestWarmStartAcrossRestart serves requests through a journaled server,
// restarts onto the same journal directory, and checks the second
// generation answers from a warm cache and honors idempotency keys
// without re-executing.
func TestWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 2, Journal: j1, Recovery: rec1})
	ts1 := httptest.NewServer(Handler(s1))

	resp, body := postColorHeaders(t, ts1, ColorRequest{Gen: "grid:6:6"},
		map[string]string{"Idempotency-Key": "retry-me"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gen 1 status %d: %s", resp.StatusCode, body)
	}
	var first ColorResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	resp, body = postColorHeaders(t, ts1, ColorRequest{Gen: "grid:5:5"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gen 1 status %d: %s", resp.StatusCode, body)
	}
	ts1.Close()
	s1.Stop()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2: same journal dir; completions must warm the cache and
	// the idempotency map before any request is served.
	j2, rec2 := openTestJournal(t, dir)
	if len(rec2.Completions) < 2 {
		t.Fatalf("recovered %d completions, want >= 2", len(rec2.Completions))
	}
	s2 := NewServer(Config{Devices: 2, Journal: j2, Recovery: rec2})
	defer func() { s2.Stop(); j2.Close() }()
	ts2 := httptest.NewServer(Handler(s2))
	defer ts2.Close()

	ri := s2.RecoveryInfo()
	if !ri.Enabled || ri.WarmedCache < 2 {
		t.Fatalf("recovery info after warm start: %+v", ri)
	}

	resp, body = postColorHeaders(t, ts2, ColorRequest{Gen: "grid:6:6"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gen 2 status %d: %s", resp.StatusCode, body)
	}
	var warm ColorResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatalf("restarted server missed its warm cache: %+v", warm)
	}
	if warm.Fingerprint != first.Fingerprint || warm.NumColors != first.NumColors {
		t.Fatalf("warm result differs: %+v vs %+v", warm, first)
	}

	// A client retry with the pre-crash idempotency key gets the stored
	// answer, flagged as an idempotent replay.
	resp, body = postColorHeaders(t, ts2, ColorRequest{Gen: "grid:6:6"},
		map[string]string{"Idempotency-Key": "retry-me"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idem retry status %d: %s", resp.StatusCode, body)
	}
	var idem ColorResponse
	if err := json.Unmarshal(body, &idem); err != nil {
		t.Fatal(err)
	}
	if !idem.IdempotentReplay {
		t.Fatalf("retry with pre-crash Idempotency-Key not replayed: %+v", idem)
	}
}

// TestWarmCacheHitVerifiesColoring: a journal record is CRC-checked, not
// checked against its graph, so a cache entry warmed from an improper
// completion must not answer. Its first hit proves it against the
// request's graph, drops it and runs the request; the repeat after that is
// answered from the proper coloring the run cached.
func TestWarmCacheHitVerifiesColoring(t *testing.T) {
	dir := t.TempDir()
	up := ColorRequest{Gen: "grid:6:6", IncludeColors: true}
	req, g, err := buildRequest(&up, newSpecCache(1))
	if err != nil {
		t.Fatal(err)
	}
	fp := g.Fingerprint()
	j, _ := openTestJournal(t, dir)
	// Every vertex color 0: every edge of the grid is monochromatic.
	if err := j.AppendComplete(journal.CompleteRecord{ID: "improper", Fingerprint: fp, PolicyKey: keyOf(req, fp, 1).policy,
		Disposition: journal.DispOK, NumColors: 1, ColorsB64: journal.EncodeColors(make([]int32, g.NumVertices())),
		CompletedUnixMS: time.Now().UnixMilli()}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts, stop := startJournaled(t, dir)
	defer stop()
	if warmed := s.RecoveryInfo().WarmedCache; warmed != 1 {
		t.Fatalf("warmed %d cache entries, want 1", warmed)
	}
	first := mustPost(t, ts, up)
	if first.Cached {
		t.Fatalf("re-upload answered from the improper warmed cache entry: %+v", first)
	}
	if err := color.Verify(g, first.Colors); err != nil {
		t.Fatalf("re-upload answered an improper coloring: %v", err)
	}
	if n := s.reg.Counter("warm_cache_rejected_total").Value(); n != 1 {
		t.Fatalf("warm_cache_rejected_total %d, want 1", n)
	}
	again := mustPost(t, ts, up)
	if !again.Cached || !slices.Equal(again.Colors, first.Colors) {
		t.Fatalf("repeat not answered from the run's coloring: %+v", again)
	}
}

// TestWarmCacheConcurrentFirstHits: concurrent first hits on warmed
// entries each get a proper coloring, a proper entry answers all of them
// from the cache, and an improper entry is dropped and counted once.
func TestWarmCacheConcurrentFirstHits(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	specs := []string{"grid:6:6", "grid:5:5"} // journaled improper, proper
	for i, spec := range specs {
		req, g, err := buildRequest(&ColorRequest{Gen: spec}, newSpecCache(1))
		if err != nil {
			t.Fatal(err)
		}
		colors := make([]int32, g.NumVertices())
		if i == 1 {
			colors = color.Greedy(g, color.Natural, 0)
		}
		fp := g.Fingerprint()
		if err := j.AppendComplete(journal.CompleteRecord{ID: spec, Fingerprint: fp, PolicyKey: keyOf(req, fp, 1).policy,
			Disposition: journal.DispOK, NumColors: color.NumColors(colors), ColorsB64: journal.EncodeColors(colors),
			CompletedUnixMS: time.Now().UnixMilli()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s, _, stop := startJournaled(t, dir)
	defer stop()

	const callers = 8
	errs := make(chan error, 2*callers)
	for c := 0; c < callers; c++ {
		for i, spec := range specs {
			go func() {
				req, g, err := buildRequest(&ColorRequest{Gen: spec}, s.front.specs)
				if err == nil {
					var res *Response
					if res, err = s.Submit(context.Background(), req); err == nil {
						err = color.Verify(g, res.Colors)
						if err == nil && i == 1 && !res.Cached {
							err = fmt.Errorf("%s: proper warmed entry not answered from the cache", spec)
						}
					}
				}
				errs <- err
			}()
		}
	}
	for k := 0; k < 2*callers; k++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if n := s.reg.Counter("warm_cache_rejected_total").Value(); n != 1 {
		t.Fatalf("warm_cache_rejected_total %d, want 1", n)
	}
}

// TestRecallSkipsUnprovedWarmEntry: a memo recall carries no graph, so it
// must not answer from a warmed entry that no full-path hit has proved
// yet, even when a digest already names the entry's key; the full path
// proves the entry, and a recall answers after that.
func TestRecallSkipsUnprovedWarmEntry(t *testing.T) {
	a := NewAdmission(Config{CacheEntries: 8})
	up := &Upload{ContentType: "application/json", Body: []byte(`{"gen":"grid:6:6"}`)}
	_, req, err := a.Decode(up)
	if err != nil {
		t.Fatal(err)
	}
	g := req.Graph
	req.Fingerprint = g.Fingerprint()
	key := keyOf(req, req.Fingerprint, 1)
	colors := color.Greedy(g, color.Natural, 0)
	a.Recover(&journal.Recovery{Completions: []journal.CompleteRecord{{Fingerprint: req.Fingerprint, PolicyKey: key.policy,
		Disposition: journal.DispOK, NumColors: color.NumColors(colors), ColorsB64: journal.EncodeColors(colors)}}}, nil)
	a.memo.put(memoEntry{sum: up.digest(), key: key, vertices: g.NumVertices(), edges: g.NumEdges()})
	if out, ok := a.Recall(up, "r1", ""); ok {
		t.Fatalf("recall answered from a warmed entry not yet proved: %+v", out)
	}
	res, err := a.Serve(context.Background(), req, 1, func() (*Response, error) {
		return nil, errors.New("a proper warmed entry missed the cache")
	})
	if err != nil || !res.Cached {
		t.Fatalf("full path: %+v, %v; want the warmed entry", res, err)
	}
	if _, ok := a.Recall(up, "r2", ""); !ok {
		t.Fatal("recall missed the entry the full path proved")
	}
}

// TestReplayPendingAfterCrash fabricates a crash: accept records with no
// completions land in the journal, the "restarted" server must re-run the
// live one, expire the dead one, and settle both so a third generation
// finds nothing pending.
func TestReplayPendingAfterCrash(t *testing.T) {
	dir := t.TempDir()
	j1, _ := openTestJournal(t, dir)
	wire := func(gen string) []byte {
		b, _ := json.Marshal(ColorRequest{Gen: gen})
		return b
	}
	// Live job: no deadline, must replay to completion.
	if err := j1.AppendAccept(journal.AcceptRecord{
		ID: "crash-live", IdemKey: "crash-idem", Wire: wire("grid:7:7"),
		AcceptedUnixMS: time.Now().UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}
	// Dead job: deadline already passed, must be expired explicitly.
	if err := j1.AppendAccept(journal.AcceptRecord{
		ID: "crash-dead", Wire: wire("grid:8:8"),
		AcceptedUnixMS: time.Now().Add(-time.Minute).UnixMilli(),
		DeadlineUnixMS: time.Now().Add(-30 * time.Second).UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec := openTestJournal(t, dir)
	if len(rec.Pending) != 2 {
		t.Fatalf("recovered %d pending, want 2", len(rec.Pending))
	}
	s := NewServer(Config{Devices: 2, Journal: j2, Recovery: rec})

	select {
	case <-s.RecoveryDone():
	case <-time.After(10 * time.Second):
		t.Fatal("recovery did not settle")
	}
	ri := s.RecoveryInfo()
	if !ri.Done || ri.PendingRecovered != 2 {
		t.Fatalf("recovery info: %+v", ri)
	}
	if ri.ReplayCompleted != 1 || ri.ReplayExpired != 1 || ri.ReplayFailed != 0 {
		t.Fatalf("replay verdict completed=%d expired=%d failed=%d, want 1/1/0",
			ri.ReplayCompleted, ri.ReplayExpired, ri.ReplayFailed)
	}

	// The replayed result is servable: same request hits the cache, and
	// the idempotency key recorded pre-crash answers retries.
	req, g, err := buildRequest(&ColorRequest{Gen: "grid:7:7"}, newSpecCache(4))
	if err != nil || g == nil {
		t.Fatal(err)
	}
	res, err := s.Submit(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatalf("replayed job's result not cached: %+v", res)
	}
	req2, _, _ := buildRequest(&ColorRequest{Gen: "grid:7:7"}, newSpecCache(4))
	req2.IdemKey = "crash-idem"
	res2, err := s.Submit(t.Context(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.IdempotentReplay {
		t.Fatalf("pre-crash idem key not replayed: %+v", res2)
	}

	s.Stop()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 3: every accept must be settled.
	j3, rec3 := openTestJournal(t, dir)
	defer j3.Close()
	if len(rec3.Pending) != 0 {
		t.Fatalf("generation 3 still sees %d pending: %+v", len(rec3.Pending), rec3.Pending)
	}
}

// TestRecoveryzEndpoint checks the /recoveryz surface end to end.
func TestRecoveryzEndpoint(t *testing.T) {
	dir := t.TempDir()
	j, rec := openTestJournal(t, dir)
	s := NewServer(Config{Devices: 1, Journal: j, Recovery: rec})
	defer func() { s.Stop(); j.Close() }()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/recoveryz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ri RecoveryInfo
	if err := json.NewDecoder(resp.Body).Decode(&ri); err != nil {
		t.Fatal(err)
	}
	if !ri.Enabled || !ri.Done || ri.Journal == nil {
		t.Fatalf("recoveryz: %+v", ri)
	}
}

// TestRequestIDs checks the satellite contract: inbound X-Request-ID
// honored and echoed (header, success body, error body), generated when
// absent, and unsafe inbound IDs replaced.
func TestRequestIDs(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// Honored and echoed on success.
	resp, body := postColorHeaders(t, ts, ColorRequest{Gen: "grid:4:4"},
		map[string]string{"X-Request-ID": "my-trace-42"})
	if resp.Header.Get("X-Request-ID") != "my-trace-42" {
		t.Fatalf("header not echoed: %q", resp.Header.Get("X-Request-ID"))
	}
	var cr ColorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.RequestID != "my-trace-42" {
		t.Fatalf("body request_id = %q", cr.RequestID)
	}

	// Present in error bodies.
	resp, body = postColorHeaders(t, ts, ColorRequest{},
		map[string]string{"X-Request-ID": "bad-req-7"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID != "bad-req-7" || er.Kind != "bad_request" {
		t.Fatalf("error body: %+v", er)
	}

	// Generated when absent; never empty.
	resp, body = postColorHeaders(t, ts, ColorRequest{Gen: "grid:4:4"}, nil)
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.RequestID == "" || resp.Header.Get("X-Request-ID") != cr.RequestID {
		t.Fatalf("generated id missing or mismatched: body %q header %q",
			cr.RequestID, resp.Header.Get("X-Request-ID"))
	}

	// Unsafe inbound IDs (header injection, control chars) are replaced.
	resp, _ = postColorHeaders(t, ts, ColorRequest{Gen: "grid:4:4"},
		map[string]string{"X-Request-ID": "evil;id"})
	if got := resp.Header.Get("X-Request-ID"); got == "evil;id" || got == "" {
		t.Fatalf("unsafe id echoed verbatim or dropped: %q", got)
	}
}

// TestCacheMetricsExported drives the result LRU past capacity and
// checks size/hit/miss/eviction surface in Stats and /metricsz.
func TestCacheMetricsExported(t *testing.T) {
	s := NewServer(Config{Devices: 1, CacheEntries: 2})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	for _, gen := range []string{"grid:4:4", "grid:4:5", "grid:4:6"} {
		if resp, body := postColor(t, ts, ColorRequest{Gen: gen}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", gen, resp.StatusCode, body)
		}
	}
	// One hit to light the hit counter.
	if resp, _ := postColor(t, ts, ColorRequest{Gen: "grid:4:6"}); resp.StatusCode != http.StatusOK {
		t.Fatal("hit request failed")
	}

	st := s.Stats()
	if st.CacheEntries != 2 {
		t.Fatalf("CacheEntries = %d, want 2 (capacity)", st.CacheEntries)
	}
	if st.CacheEvictions != 1 {
		t.Fatalf("CacheEvictions = %d, want 1", st.CacheEvictions)
	}
	if st.CacheHits < 1 || st.CacheMisses < 3 {
		t.Fatalf("hits/misses = %d/%d", st.CacheHits, st.CacheMisses)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, line := range []string{"cache_entries 2", "cache_evictions_total 1", "cache_hits ", "cache_misses ", "idem_entries "} {
		if !strings.Contains(text, line) {
			t.Errorf("metricsz missing %q", line)
		}
	}
}

// appendPending journals one pending accept per id, each replayable as a
// small generated graph, and closes the journal.
func appendPending(t *testing.T, dir string, ids ...string) {
	t.Helper()
	j, _ := openTestJournal(t, dir)
	for i, id := range ids {
		wire, _ := json.Marshal(ColorRequest{Gen: "grid:5:" + strconv.Itoa(4+i)})
		if err := j.AppendAccept(journal.AcceptRecord{
			ID: id, Fingerprint: uint64(i + 1), AcceptedUnixMS: time.Now().UnixMilli(), Wire: wire,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// pendingIDs opens dir and returns the IDs of its pending accepts, sorted.
func pendingIDs(t *testing.T, dir string) []string {
	t.Helper()
	j, rec := openTestJournal(t, dir)
	defer j.Close()
	var ids []string
	for _, p := range rec.Pending {
		ids = append(ids, p.ID)
	}
	slices.Sort(ids)
	return ids
}

// A replay the executor refuses without running it — drain, a full queue,
// a shed — is not settled: nobody holds a replayed job to retry it, so it
// stays pending for the next start. Once draining, replay launches no
// more jobs at all.
func TestRefusedReplayStaysPending(t *testing.T) {
	dir := t.TempDir()
	appendPending(t, dir, "drained", "full", "ok", "shed")
	j, rec := openTestJournal(t, dir)
	a := NewAdmission(Config{Journal: j, ReplayParallelism: 1})
	a.Recover(rec, func(_ context.Context, _ *ColorRequest, req *Request) (*Response, error) {
		switch req.RequestID {
		case "drained":
			return nil, fmt.Errorf("handed off: %w", ErrDraining)
		case "full":
			return nil, ErrQueueFull
		case "shed":
			return nil, fmt.Errorf("fleet busy: %w", ErrShedding)
		}
		return &Response{Fingerprint: 77, Colors: []int32{0, 1}, NumColors: 2}, nil
	})
	<-a.recDone
	if ri := a.RecoveryInfo(); ri.ReplayCompleted != 1 || ri.ReplayDeferred != 3 || ri.ReplayFailed != 0 {
		t.Fatalf("replay verdict %+v, want 1 completed and 3 deferred", ri)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := pendingIDs(t, dir), []string{"drained", "full", "shed"}; !slices.Equal(got, want) {
		t.Fatalf("pending after refused replays = %v, want %v", got, want)
	}

	j2, rec2 := openTestJournal(t, dir)
	a2 := NewAdmission(Config{Journal: j2})
	a2.StartDrain()
	var calls atomic.Int64
	a2.Recover(rec2, func(context.Context, *ColorRequest, *Request) (*Response, error) {
		calls.Add(1)
		return nil, errors.New("replay launched while draining")
	})
	<-a2.recDone
	if n := calls.Load(); n != 0 || a2.RecoveryInfo().ReplayDeferred != 3 {
		t.Fatalf("draining replay launched %d jobs, deferred %d; want 0 and 3", n, a2.RecoveryInfo().ReplayDeferred)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pendingIDs(t, dir); len(got) != 3 {
		t.Fatalf("pending after a draining start = %v, want all 3 kept", got)
	}
}

// A compaction while recovered jobs are still replaying keeps their
// accepts: a crash right after it recovers every job not yet settled.
func TestCompactionDuringReplayKeepsPending(t *testing.T) {
	dir := t.TempDir()
	ids := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	appendPending(t, dir, ids...)
	j, rec, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNone, CompactAfterSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdmission(Config{Journal: j, ReplayParallelism: 2})
	release := make(chan struct{})
	a.Recover(rec, func(ctx context.Context, _ *ColorRequest, req *Request) (*Response, error) {
		<-release
		return &Response{Fingerprint: 1, Colors: []int32{0}, NumColors: 1}, nil
	})
	if err := j.Compact(); err != nil {
		t.Fatal(err)
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
	close(release)
	<-a.recDone
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pendingIDs(t, crashed); !slices.Equal(got, ids) {
		t.Fatalf("crash after a mid-replay compaction recovers %v, want %v", got, ids)
	}
	if got := pendingIDs(t, dir); len(got) != 0 {
		t.Fatalf("settled replays still pending: %v", got)
	}
}
