package cluster_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"gcolor/internal/cluster"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
	"gcolor/internal/serve"
)

const (
	ctJSON        = "application/json"
	ctJSONCharset = "application/json; charset=utf-8"
)

// postRaw sends one /color body under the given Content-Type and query and
// returns the status and the reply bytes.
func postRaw(t *testing.T, baseURL, ct, query string, body []byte, rid, idemKey string) (int, []byte) {
	t.Helper()
	u := baseURL + "/color"
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	return resp.StatusCode, out
}

// mustOK fails the test unless a reply is a 200, and decodes it.
func mustOK(t *testing.T, what string, code int, body []byte) *serve.ColorResponse {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, code, body)
	}
	var cr serve.ColorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("%s: decode reply: %v", what, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(&cr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("%s: reply\n%s\nis not encoding/json's\n%s", what, body, want.Bytes())
	}
	return &cr
}

// postOK is postRaw for a request that must succeed.
func postOK(t *testing.T, what, baseURL, ct, query string, body []byte, rid, idemKey string) *serve.ColorResponse {
	t.Helper()
	code, reply := postRaw(t, baseURL, ct, query, body, rid, idemKey)
	return mustOK(t, what, code, reply)
}

// edgeListBody is the JSON /color body carrying spec's graph as edge-list
// text under opts.
func edgeListBody(t *testing.T, spec string, opts serve.ColorRequest) ([]byte, *graph.Graph) {
	t.Helper()
	g := mustGraph(t, spec)
	var text strings.Builder
	if err := graph.WriteEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	opts.Graph = text.String()
	body, err := json.Marshal(&opts)
	if err != nil {
		t.Fatal(err)
	}
	return body, g
}

func mustGraph(t *testing.T, spec string) *graph.Graph {
	t.Helper()
	g, err := serve.ParseGraphSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// colorCalls counts the /color calls a test worker has received.
func (w *testWorker) colorCalls() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.colorRIDs)
}

// A memo hit's reply is byte for byte the reply the full path gives the
// same request, with colors and without (both requests carry the same
// X-Request-ID, so even request_id matches). The full path's reply comes
// from the same body under another Content-Type, which must not hit the
// memo — nor may another query.
func TestCoordinatorMemoHitMatchesFullPath(t *testing.T) {
	for _, include := range []bool{false, true} {
		t.Run(fmt.Sprintf("include_colors=%v", include), func(t *testing.T) {
			w := newTestWorker(t, serve.Config{})
			coord, ts := newTestCoordinator(t, cluster.Config{}, w)
			body, g := edgeListBody(t, "gnm:300:1200:7", serve.ColorRequest{Alg: "hybrid", Seed: 5, IncludeColors: include})

			miss := postOK(t, "miss", ts.URL, ctJSON, "", body, "memo-0", "")
			if miss.Cached || miss.Vertices != g.NumVertices() || miss.Edges != g.NumEdges() {
				t.Fatalf("first request: cached=%v vertices=%d edges=%d", miss.Cached, miss.Vertices, miss.Edges)
			}
			calls := w.colorCalls()

			code, full := postRaw(t, ts.URL, ctJSONCharset, "", body, "memo-1", "")
			mustOK(t, "full-path hit", code, full)
			code, other := postRaw(t, ts.URL, ctJSON, "v=1", body, "memo-1", "")
			mustOK(t, "other query", code, other)
			if st := coord.Stats(); st.MemoHits != 0 || st.CacheHits != 2 {
				t.Fatalf("another Content-Type or query: memo hits %d, cache hits %d; want 0 and 2", st.MemoHits, st.CacheHits)
			}

			code, memo := postRaw(t, ts.URL, ctJSON, "", body, "memo-1", "")
			hit := mustOK(t, "memo hit", code, memo)
			if st := coord.Stats(); st.MemoHits != 1 || st.CacheHits != 3 {
				t.Fatalf("repeat: memo hits %d, cache hits %d; want 1 and 3", st.MemoHits, st.CacheHits)
			}
			if !bytes.Equal(memo, full) {
				t.Fatalf("memo-hit reply differs from the full path's:\nmemo: %s\nfull: %s", memo, full)
			}
			if !hit.Cached || (len(hit.Colors) > 0) != include {
				t.Fatalf("memo hit: cached=%v with %d colors, include_colors=%v", hit.Cached, len(hit.Colors), include)
			}
			if include && !slices.Equal(hit.Colors, miss.Colors) {
				t.Fatal("memo hit's colors differ from the miss's")
			}
			if w.colorCalls() != calls {
				t.Fatal("a cache or memo hit called the worker")
			}
		})
	}
}

// An Idempotency-Key retry is answered through the memo as the full path
// answers it: the stored answer, marked as a replay.
func TestCoordinatorMemoIdempotentReplay(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w)
	body, _ := edgeListBody(t, "gnm:200:800:3", serve.ColorRequest{IncludeColors: true})

	first := postOK(t, "first", ts.URL, ctJSON, "", body, "idem-0", "memo-key")
	code, full := postRaw(t, ts.URL, ctJSONCharset, "", body, "idem-1", "memo-key")
	if r := mustOK(t, "full-path replay", code, full); !r.IdempotentReplay {
		t.Fatalf("full-path retry not a replay: %+v", r)
	}
	code, memo := postRaw(t, ts.URL, ctJSON, "", body, "idem-1", "memo-key")
	r := mustOK(t, "memo replay", code, memo)
	if !r.IdempotentReplay || !slices.Equal(r.Colors, first.Colors) {
		t.Fatalf("memo retry: replay=%v, colors equal=%v", r.IdempotentReplay, slices.Equal(r.Colors, first.Colors))
	}
	if !bytes.Equal(memo, full) {
		t.Fatalf("memo replay differs from the full path's:\nmemo: %s\nfull: %s", memo, full)
	}
	if st := coord.Stats(); st.MemoHits != 1 || st.CacheHits != 0 {
		t.Fatalf("memo hits %d, cache hits %d; want 1 and 0 (a replay is not a cache hit)", st.MemoHits, st.CacheHits)
	}
}

// A memo hit calls no worker and appends nothing to the journal.
func TestCoordinatorMemoHitSkipsWorkerAndJournal(t *testing.T) {
	j, rec, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{Journal: j, Recovery: rec}, w)
	body, _ := edgeListBody(t, "gnm:250:1000:11", serve.ColorRequest{Alg: "baseline"})

	postOK(t, "miss", ts.URL, ctJSON, "", body, "j-0", "j-key")
	calls, appends := w.colorCalls(), j.Stats().Appends
	if appends != 2 {
		t.Fatalf("the miss appended %d journal records, want an accept and a completion", appends)
	}
	for i := 1; i <= 3; i++ {
		postOK(t, "repeat", ts.URL, ctJSON, "", body, fmt.Sprintf("j-%d", i), "")
		postOK(t, "keyed repeat", ts.URL, ctJSON, "", body, fmt.Sprintf("jk-%d", i), "j-key")
	}
	if got := w.colorCalls(); got != calls {
		t.Fatalf("memo hits made %d worker calls", got-calls)
	}
	if got := j.Stats().Appends; got != appends {
		t.Fatalf("memo hits appended %d journal records", got-appends)
	}
	if st := coord.Stats(); st.MemoHits != 6 || st.Jobs != 1 {
		t.Fatalf("memo hits %d, jobs %d; want 6 and 1", st.MemoHits, st.Jobs)
	}
}

// A restarted coordinator's answers are warm-started from the journal,
// which keeps colorings but not graph sizes: the memo supplies the
// vertex and edge counts, so a memo hit still replies as the full path
// does.
func TestCoordinatorMemoWarmStartedAnswer(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorker(t, serve.Config{})
	coord1, ts1 := newTestCoordinator(t, cluster.Config{Journal: j, Recovery: rec}, w)
	body, g := edgeListBody(t, "gnm:260:1040:6", serve.ColorRequest{IncludeColors: true})
	postOK(t, "before restart", ts1.URL, ctJSON, "", body, "ws-0", "")
	ts1.Close()
	coord1.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	coord2, ts2 := newTestCoordinator(t, cluster.Config{Journal: j2, Recovery: rec2}, w)
	code, full := postRaw(t, ts2.URL, ctJSON, "", body, "ws-1", "")
	if r := mustOK(t, "warm hit", code, full); !r.Cached || r.Vertices != g.NumVertices() || r.Edges != g.NumEdges() {
		t.Fatalf("warm hit: cached=%v vertices=%d edges=%d", r.Cached, r.Vertices, r.Edges)
	}
	code, memo := postRaw(t, ts2.URL, ctJSON, "", body, "ws-1", "")
	mustOK(t, "memo hit", code, memo)
	if st := coord2.Stats(); st.MemoHits != 1 {
		t.Fatalf("memo hits %d, want 1", st.MemoHits)
	}
	if !bytes.Equal(memo, full) {
		t.Fatalf("memo hit of a warm-started answer differs from the full path's:\nmemo: %s\nfull: %s", memo, full)
	}
}

// A memo hit whose cache entry was evicted falls back to the full path:
// the request runs again and gets a proper answer, not a failure. A
// resident upload is cached but never memoized, so it can evict the
// memoized request's cache entry while the memo entry stays.
func TestCoordinatorMemoEvictedCacheFallsBack(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{CacheEntries: 1}, w)
	body, _ := edgeListBody(t, "gnm:220:900:5", serve.ColorRequest{IncludeColors: true})

	first := postOK(t, "first", ts.URL, ctJSON, "", body, "ev-0", "")
	resident := mustJSON(t, &serve.ColorRequest{Gen: "grid:9:9", Resident: true})
	postOK(t, "resident", ts.URL, ctJSON, "", resident, "ev-r", "")
	if st := coord.Stats(); st.MemoEntries != 1 || st.CacheEntries != 1 || st.CacheEvictions != 1 {
		t.Fatalf("memo entries %d, cache entries %d, evictions %d; want 1, 1, 1", st.MemoEntries, st.CacheEntries, st.CacheEvictions)
	}
	again := postOK(t, "after eviction", ts.URL, ctJSON, "", body, "ev-1", "")
	if !slices.Equal(again.Colors, first.Colors) {
		t.Fatal("after eviction: the re-run's coloring differs from the first")
	}
	if st := coord.Stats(); st.MemoHits != 0 || st.Routed != 3 {
		t.Fatalf("after eviction: memo hits %d, routed %d; want 0 and 3 (the request routed again)", st.MemoHits, st.Routed)
	}
	hit := postOK(t, "repeat", ts.URL, ctJSON, "", body, "ev-2", "")
	if st := coord.Stats(); !hit.Cached || st.MemoHits != 1 {
		t.Fatalf("repeat after the re-run: cached=%v, memo hits %d; want a memo hit", hit.Cached, st.MemoHits)
	}
}

// Resident uploads, no_cache requests, deltas (JSON and binary) and bodies
// that fail to decode are never memoized; a malformed body gets 400 every
// time.
func TestCoordinatorMemoNeverRecords(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w)

	base := postOK(t, "resident", ts.URL, ctJSON, "", mustJSON(t, &serve.ColorRequest{Gen: "grid:8:8", Resident: true}), "nr-base", "")
	baseFp, err := serve.ParseFingerprint(base.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	type upload struct {
		name, ct, query string
		body            []byte
		status          int
	}
	uploads := []upload{
		{"resident", ctJSON, "", mustJSON(t, &serve.ColorRequest{Gen: "grid:8:8", Resident: true}), http.StatusOK},
		{"no_cache", ctJSON, "", mustJSON(t, &serve.ColorRequest{Gen: "grid:7:9", NoCache: true}), http.StatusOK},
		{"delta", ctJSON, "", mustJSON(t, &serve.ColorRequest{BaseFingerprint: base.Fingerprint, AddEdges: [][2]int32{{0, 63}}}), http.StatusOK},
		{"binary delta", serve.ContentTypeBinaryCSR, "", graph.EncodeWireDelta(baseFp, &graph.Delta{AddEdges: [][2]int32{{1, 62}}}), http.StatusOK},
		{"bad json", ctJSON, "", []byte(`{"gen":`), http.StatusBadRequest},
		{"bad alg", ctJSON, "", mustJSON(t, &serve.ColorRequest{Gen: "grid:6:6", Alg: "nope"}), http.StatusBadRequest},
		{"bad frame", serve.ContentTypeBinaryCSR, "", []byte("GCSRjunk"), http.StatusBadRequest},
		{"bad query", serve.ContentTypeBinaryCSR, "seed=x", graph.EncodeWireCSR(mustGraph(t, "grid:5:5")), http.StatusBadRequest},
	}
	for _, u := range uploads {
		for i := 0; i < 2; i++ {
			code, reply := postRaw(t, ts.URL, u.ct, u.query, u.body, fmt.Sprintf("nr-%s-%d", u.name, i), "")
			if code != u.status {
				t.Fatalf("%s, try %d: status %d, want %d: %s", u.name, i, code, u.status, reply)
			}
			// Both delta forms reach the base's owner as deltas.
			if strings.Contains(u.name, "delta") && !mustOK(t, u.name, code, reply).Delta {
				t.Fatalf("%s, try %d: not served as a delta: %s", u.name, i, reply)
			}
		}
	}
	if st := coord.Stats(); st.MemoEntries != 0 || st.MemoHits != 0 {
		t.Fatalf("memo entries %d, hits %d; want none", st.MemoEntries, st.MemoHits)
	}
}

// A draining coordinator still answers memo hits — cache hits and
// idempotent replays — and still refuses fresh work.
func TestCoordinatorMemoDrain(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w)
	hitBody, _ := edgeListBody(t, "gnm:150:600:2", serve.ColorRequest{})
	keyedBody, _ := edgeListBody(t, "gnm:160:640:4", serve.ColorRequest{})
	postOK(t, "seed", ts.URL, ctJSON, "", hitBody, "dr-0", "")
	postOK(t, "keyed seed", ts.URL, ctJSON, "", keyedBody, "dr-1", "dr-key")

	coord.RequestDrain()
	if r := postOK(t, "hit while draining", ts.URL, ctJSON, "", hitBody, "dr-2", ""); !r.Cached {
		t.Fatalf("hit while draining not cached: %+v", r)
	}
	if r := postOK(t, "replay while draining", ts.URL, ctJSON, "", keyedBody, "dr-3", "dr-key"); !r.IdempotentReplay {
		t.Fatalf("retry while draining not a replay: %+v", r)
	}
	fresh, _ := edgeListBody(t, "gnm:170:680:6", serve.ColorRequest{})
	if code, reply := postRaw(t, ts.URL, ctJSON, "", fresh, "dr-4", ""); code != http.StatusServiceUnavailable || !strings.Contains(string(reply), `"draining"`) {
		t.Fatalf("fresh work while draining: %d %s, want 503 draining", code, reply)
	}
	if st := coord.Stats(); st.MemoHits != 2 {
		t.Fatalf("memo hits %d, want 2", st.MemoHits)
	}
}

// CacheEntries < 0 turns the cache off, and the memo with it.
func TestCoordinatorMemoOffWithoutCache(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{CacheEntries: -1}, w)
	body, _ := edgeListBody(t, "gnm:120:480:9", serve.ColorRequest{})
	for i := 0; i < 2; i++ {
		postOK(t, "request", ts.URL, ctJSON, "", body, fmt.Sprintf("off-%d", i), "")
	}
	if st := coord.Stats(); st.MemoEntries != 0 || st.MemoHits != 0 || st.Routed != 2 {
		t.Fatalf("memo entries %d, hits %d, routed %d; want 0, 0, 2", st.MemoEntries, st.MemoHits, st.Routed)
	}
}

// /metricsz reports the memo's hits and size.
func TestCoordinatorMemoMetrics(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	_, ts := newTestCoordinator(t, cluster.Config{}, w)
	a, _ := edgeListBody(t, "gnm:100:300:1", serve.ColorRequest{})
	b, _ := edgeListBody(t, "gnm:110:330:1", serve.ColorRequest{})
	for _, body := range [][]byte{a, b, a, a, b} {
		postOK(t, "request", ts.URL, ctJSON, "", body, "", "")
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"cluster_memo_hits_total 3\n", "cluster_memo_entries 2\n"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metricsz lacks %q:\n%s", strings.TrimSpace(want), text)
		}
	}
}

// recordingWorker fronts a test worker and keeps every /color body it is
// sent.
func recordingWorker(t *testing.T, w *testWorker) (url string, bodies func() []serve.ColorRequest) {
	t.Helper()
	var mu sync.Mutex
	var got []serve.ColorRequest
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/color" {
			raw, _ := io.ReadAll(r.Body)
			var cr serve.ColorRequest
			if err := json.Unmarshal(raw, &cr); err != nil {
				t.Errorf("worker got a body that is not a JSON ColorRequest: %v", err)
			}
			mu.Lock()
			got = append(got, cr)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		w.ts.Config.Handler.ServeHTTP(rw, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, func() []serve.ColorRequest {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got)
	}
}

// A routed miss travels to its worker as a binary CSR frame: an edge-list
// upload as graph_csr_b64 built from the graph the coordinator parsed, a
// binary upload as its own frame. A generator spec goes unchanged.
func TestCoordinatorRoutesCSRFrames(t *testing.T) {
	url, bodies := recordingWorker(t, newTestWorker(t, serve.Config{}))
	coord := cluster.NewCoordinator(cluster.Config{Peers: []string{url}, HeartbeatInterval: -1})
	ts := httptest.NewServer(cluster.Handler(coord))
	t.Cleanup(func() { ts.Close(); coord.Close() })

	body, g := edgeListBody(t, "gnm:180:700:8", serve.ColorRequest{Alg: "hybrid", Seed: 3, IncludeColors: true})
	viaText := postOK(t, "edge list", ts.URL, ctJSON, "", body, "fr-0", "")
	postOK(t, "gen", ts.URL, ctJSON, "", mustJSON(t, &serve.ColorRequest{Gen: "rmat:7:4:2", Alg: "baseline"}), "fr-1", "")
	frame := graph.EncodeWireCSR(mustGraph(t, "grid:9:7"))
	postOK(t, "frame", ts.URL, serve.ContentTypeBinaryCSR, "alg=hybrid&seed=4", frame, "fr-2", "")

	got := bodies()
	if len(got) != 3 {
		t.Fatalf("worker got %d calls, want 3", len(got))
	}
	text := got[0]
	if text.Graph != "" || text.Alg != "hybrid" || text.Seed != 3 || !text.IncludeColors {
		t.Fatalf("edge-list upload forwarded as %+v", text)
	}
	sent, err := base64.StdEncoding.DecodeString(text.GraphCSRB64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent, graph.EncodeWireCSR(g)) {
		t.Fatal("edge-list upload's frame is not the parsed graph's")
	}
	if viaText.Fingerprint != graph.FingerprintString(g.Fingerprint()) {
		t.Fatalf("fingerprint %s, want %s", viaText.Fingerprint, graph.FingerprintString(g.Fingerprint()))
	}
	// The worker colors the frame exactly as it colors the text: the same
	// request sent straight to it (no_cache, so it runs again) gets the
	// same coloring in the same simulated cycles.
	direct, _ := edgeListBody(t, "gnm:180:700:8", serve.ColorRequest{Alg: "hybrid", Seed: 3, NoCache: true, IncludeColors: true})
	viaWorker := postOK(t, "direct", url, ctJSON, "", direct, "fr-3", "")
	if viaWorker.Cached || !slices.Equal(viaWorker.Colors, viaText.Colors) || viaWorker.Cycles != viaText.Cycles {
		t.Fatalf("text sent to the worker: cached=%v, colors equal %v, cycles %d; routed frame: cycles %d",
			viaWorker.Cached, slices.Equal(viaWorker.Colors, viaText.Colors), viaWorker.Cycles, viaText.Cycles)
	}
	if gen := got[1]; gen.Gen != "rmat:7:4:2" || gen.GraphCSRB64 != "" || gen.Graph != "" {
		t.Fatalf("gen spec forwarded as %+v", gen)
	}
	if bin := got[2]; bin.GraphCSRB64 != base64.StdEncoding.EncodeToString(frame) || bin.Alg != "hybrid" || bin.Seed != 4 {
		t.Fatalf("binary upload forwarded as %+v", bin)
	}
}

// Every envelope a coordinator writes to a worker (a routed edge-list
// upload as graph_csr_b64, a routed binary frame, a generator spec, the
// shard sub-jobs of a scatter, a delta routed to its version's owner) is
// read by the worker's one-pass JSON decoder, none by encoding/json.
func TestCoordinatorEnvelopesTakeFastPath(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	_, ts := newTestCoordinator(t, cluster.Config{}, w1, w2)

	body, _ := edgeListBody(t, "gnm:180:700:8", serve.ColorRequest{Alg: "hybrid", Seed: 3, Policy: "stealing", Priority: "high", TimeoutMS: 30_000})
	postOK(t, "edge list", ts.URL, ctJSON, "", body, "env-0", "")
	postOK(t, "frame", ts.URL, serve.ContentTypeBinaryCSR, "alg=hybrid&seed=4&include_colors=true", graph.EncodeWireCSR(mustGraph(t, "grid:9:7")), "env-1", "")
	postOK(t, "gen", ts.URL, ctJSON, "", mustJSON(t, &serve.ColorRequest{Gen: "rmat:7:4:2"}), "env-2", "")
	scatter := mustJSON(t, &serve.ColorRequest{Gen: "grid:16:16", Alg: "hybrid", Seed: 5, Threshold: 9, Fused: true, Shards: 2, CycleBudget: 1 << 40, MaxRetries: 2})
	if out := postOK(t, "scatter", ts.URL, ctJSON, "", scatter, "env-3", ""); !out.Scattered {
		t.Fatalf("pinned two-shard request not scattered: %+v", out)
	}
	base := postOK(t, "resident", ts.URL, ctJSON, "", mustJSON(t, &serve.ColorRequest{Gen: "grid:8:8", Resident: true}), "env-4", "")
	delta := mustJSON(t, &serve.ColorRequest{BaseFingerprint: base.Fingerprint, AddVertices: 1, AddEdges: [][2]int32{{0, 64}}, RemoveEdges: [][2]int32{{0, 1}}})
	if out := postOK(t, "delta", ts.URL, ctJSON, "", delta, "env-5", ""); !out.Delta {
		t.Fatalf("delta not served by the incremental engine: %+v", out)
	}
	if calls := w1.colorCalls() + w2.colorCalls(); calls != 7 {
		t.Fatalf("workers got %d calls, want 7 (3 routed, 2 shards, resident, delta)", calls)
	}
	fallbacks := func(w *testWorker) int64 { return w.srv.Metrics().Counter("wire_json_fallback_total").Value() }
	for i, w := range []*testWorker{w1, w2} {
		if n := fallbacks(w); n != 0 {
			t.Fatalf("worker %d decoded %d coordinator envelopes with encoding/json", i, n)
		}
	}
	// The counter does count: a case-variant key is left to encoding/json.
	postOK(t, "case-variant key", w1.ts.URL, ctJSON, "", []byte(`{"Gen":"grid:3:3"}`), "env-6", "")
	if n := fallbacks(w1); n != 1 {
		t.Fatalf("wire_json_fallback_total %d after a non-canonical body, want 1", n)
	}
}

// A binary upload whose query does not parse is refused with 400
// bad_request naming the query error, before any worker sees it, rather
// than run with the options after the fault dropped.
func TestCoordinatorRejectsMalformedQuery(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	_, ts := newTestCoordinator(t, cluster.Config{}, w)
	frame := graph.EncodeWireCSR(mustGraph(t, "grid:9:7"))
	for query, msg := range map[string]string{
		"alg=hybrid&seed=%zz&include_colors=true": `query: invalid URL escape "%zz"`,
		"alg=hybrid;seed=5":                       "query: invalid semicolon separator in query",
	} {
		code, body := postRaw(t, ts.URL, serve.ContentTypeBinaryCSR, query, frame, "", "")
		var er struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(body, &er); err != nil || code != http.StatusBadRequest || er.Kind != "bad_request" || !strings.Contains(er.Error, msg) {
			t.Errorf("query %q: status %d, body %s; want 400 bad_request naming %q", query, code, body, msg)
		}
	}
	if n := w.colorCalls(); n != 0 {
		t.Fatalf("worker got %d calls for refused uploads", n)
	}
}

// The coordinator takes binary CSR bodies: a frame and the same graph as
// JSON edge-list text, under the same options, get the same fingerprint
// and colors; a repeated frame is a memo hit; and the frame's accept is
// journaled with the graph_csr_b64 envelope a worker writes.
func TestCoordinatorMemoBinaryBodies(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	w := newTestWorker(t, serve.Config{})
	gate, arrived, open := gatedWorker(t, w)
	defer open()
	coord := cluster.NewCoordinator(cluster.Config{Peers: []string{gate}, HeartbeatInterval: -1, Journal: j, Recovery: rec})
	ts := httptest.NewServer(cluster.Handler(coord))
	t.Cleanup(func() { ts.Close(); coord.Close() })

	g := mustGraph(t, "gnm:240:960:12")
	frame := graph.EncodeWireCSR(g)
	const query = "alg=hybrid&seed=9&include_colors=true"
	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		code, body := postRaw(t, ts.URL, serve.ContentTypeBinaryCSR, query, frame, "bin-0", "")
		done <- result{code, body}
	}()
	nextArrival(t, arrived)
	f := journal.NewFollower(dir)
	if _, err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	pending := f.Recovery().Pending
	if len(pending) != 1 || pending[0].ID != "bin-0" {
		t.Fatalf("journal pending = %+v, want the binary upload's accept", pending)
	}
	var env serve.ColorRequest
	if err := json.Unmarshal(pending[0].Wire, &env); err != nil {
		t.Fatal(err)
	}
	if env.GraphCSRB64 != base64.StdEncoding.EncodeToString(frame) || env.Alg != "hybrid" || env.Seed != 9 || !env.IncludeColors {
		t.Fatalf("journaled envelope = %+v", env)
	}
	open()
	r := <-done
	viaFrame := mustOK(t, "frame", r.code, r.body)

	text, _ := edgeListBody(t, "gnm:240:960:12", serve.ColorRequest{Alg: "hybrid", Seed: 9, IncludeColors: true})
	viaText := postOK(t, "edge list", ts.URL, ctJSON, "", text, "bin-1", "")
	if viaText.Fingerprint != viaFrame.Fingerprint || !slices.Equal(viaText.Colors, viaFrame.Colors) || len(viaFrame.Colors) != g.NumVertices() {
		t.Fatalf("frame and edge list disagree: fingerprints %s/%s, colors equal %v",
			viaFrame.Fingerprint, viaText.Fingerprint, slices.Equal(viaText.Colors, viaFrame.Colors))
	}
	calls := w.colorCalls()
	again := postOK(t, "repeated frame", ts.URL, serve.ContentTypeBinaryCSR, query, frame, "bin-2", "")
	if st := coord.Stats(); !again.Cached || st.MemoHits != 1 || w.colorCalls() != calls {
		t.Fatalf("repeated frame: cached=%v, memo hits %d, worker calls %d→%d", again.Cached, st.MemoHits, calls, w.colorCalls())
	}
	if !slices.Equal(again.Colors, viaFrame.Colors) || again.Vertices != g.NumVertices() || again.Edges != g.NumEdges() {
		t.Fatal("memo hit of a frame answered another graph")
	}
}

// Concurrent repeats of an upload share one fleet execution and one
// coloring, including those that arrive while its first run is in flight,
// when the memo already names the key but the cache does not yet hold the
// answer: they fall through to the full path and coalesce.
func TestCoordinatorMemoConcurrentRepeats(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w)
	bodies := make([][]byte, 2)
	for i := range bodies {
		bodies[i], _ = edgeListBody(t, fmt.Sprintf("gnm:400:1600:%d", i+1), serve.ColorRequest{IncludeColors: true})
	}
	const callers, rounds = 6, 4
	answers := make([][][]int32, len(bodies))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := (i + r) % len(bodies)
				resp, err := http.Post(ts.URL+"/color", ctJSON, bytes.NewReader(bodies[b]))
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
					return
				}
				var cr serve.ColorResponse
				err = json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("caller %d: status %d, decode %v", i, resp.StatusCode, err)
					return
				}
				mu.Lock()
				answers[b] = append(answers[b], cr.Colors)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if calls := w.colorCalls(); calls != len(bodies) {
		t.Fatalf("worker saw %d calls for %d distinct uploads", calls, len(bodies))
	}
	for b, as := range answers {
		for _, a := range as {
			if !slices.Equal(a, as[0]) {
				t.Fatalf("upload %d answered with two colorings", b)
			}
		}
	}
	before := coord.Stats().MemoHits
	if r := postOK(t, "repeat", ts.URL, ctJSON, "", bodies[0], "", ""); !r.Cached || coord.Stats().MemoHits != before+1 {
		t.Fatalf("repeat after the burst: cached=%v, memo hits %d→%d", r.Cached, before, coord.Stats().MemoHits)
	}
}
