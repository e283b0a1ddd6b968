package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"gcolor/internal/color"
	"gcolor/internal/graph"
)

// memoServer starts a one-device server behind Handler.
func memoServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Devices == 0 {
		cfg.Devices = 1
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Stop()
	})
	return s, ts
}

// postUpload sends one /color body under the given Content-Type and query,
// with headers given as name/value pairs, and returns the status and the
// reply bytes.
func postUpload(t *testing.T, baseURL, ct, query string, body []byte, hdr ...string) (int, []byte) {
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
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
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

// replyOK fails the test unless a reply is a 200 in encoding/json's
// bytes, and decodes it.
func replyOK(t *testing.T, what string, code int, body []byte) ColorResponse {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, code, body)
	}
	checkReplyIsEncodingJSON(t, body)
	var cr ColorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("%s: decode reply: %v", what, err)
	}
	return cr
}

// postOK is postUpload for a request that must succeed.
func postOK(t *testing.T, what, baseURL, ct, query string, body []byte, hdr ...string) ColorResponse {
	t.Helper()
	code, reply := postUpload(t, baseURL, ct, query, body, hdr...)
	return replyOK(t, what, code, reply)
}

// memoUpload is one way to send a graph: its Content-Type, a variant of it
// that decodes the same but digests differently, its query and its body.
type memoUpload struct {
	name, ct, variant, query string
	body                     []byte
	g                        *graph.Graph
}

// memoUploads is a JSON edge list, a JSON generator spec and a binary
// frame, each asking for colors when include is set.
func memoUploads(t *testing.T, include bool) []memoUpload {
	t.Helper()
	g := mustSpec(t, "gnm:300:1200:7")
	var text strings.Builder
	if err := graph.WriteEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	frameGraph := mustSpec(t, "gnm:240:960:12")
	query := "alg=hybrid&seed=9"
	if include {
		query += "&include_colors=true"
	}
	return []memoUpload{
		{"edge list", "application/json", "application/json; charset=utf-8", "",
			marshalRequest(t, &ColorRequest{Graph: text.String(), Alg: "hybrid", Seed: 5, IncludeColors: include}), g},
		{"gen", "application/json", "application/json; charset=utf-8", "",
			marshalRequest(t, &ColorRequest{Gen: "rmat:8:4:3", IncludeColors: include}), mustSpec(t, "rmat:8:4:3")},
		{"frame", ContentTypeBinaryCSR, ContentTypeBinaryCSR + "; v=1", query,
			graph.EncodeWireCSR(frameGraph), frameGraph},
	}
}

// A memo hit's reply is byte for byte the reply a fresh server's full path
// gives the same bytes (same X-Request-ID, so even request_id matches),
// for an edge list, a generator spec and a binary frame, with colors and
// without. It is counted as the full path counts it. Another Content-Type
// or another query does not hit the memo.
func TestMemoHitMatchesFullPath(t *testing.T) {
	for _, include := range []bool{false, true} {
		for _, u := range memoUploads(t, include) {
			t.Run(fmt.Sprintf("%s/include_colors=%v", u.name, include), func(t *testing.T) {
				s, ts := memoServer(t, Config{})
				miss := postOK(t, "miss", ts.URL, u.ct, u.query, u.body, "X-Request-ID", "memo-0")
				if miss.Cached || miss.Vertices != u.g.NumVertices() || miss.Edges != u.g.NumEdges() {
					t.Fatalf("first request: cached=%v vertices=%d edges=%d", miss.Cached, miss.Vertices, miss.Edges)
				}
				code, memo := postUpload(t, ts.URL, u.ct, u.query, u.body, "X-Request-ID", "memo-1")
				hit := replyOK(t, "memo hit", code, memo)
				st := s.Stats()
				if st.MemoHits != 1 || st.CacheHits != 1 || st.Requests != 2 || st.Completed != 1 {
					t.Fatalf("repeat: memo hits %d, cache hits %d, requests %d, completed %d; want 1, 1, 2, 1",
						st.MemoHits, st.CacheHits, st.Requests, st.Completed)
				}
				wantBinary := int64(0)
				if u.ct == ContentTypeBinaryCSR {
					wantBinary = 2
				}
				if st.WireBinaryRequests != wantBinary {
					t.Fatalf("binary requests %d after two %s uploads, want %d", st.WireBinaryRequests, u.name, wantBinary)
				}
				if !hit.Cached || hit.Device != -1 || (len(hit.Colors) > 0) != include {
					t.Fatalf("memo hit: cached=%v device=%d with %d colors, include_colors=%v", hit.Cached, hit.Device, len(hit.Colors), include)
				}
				if include && !slices.Equal(hit.Colors, miss.Colors) {
					t.Fatal("memo hit's colors differ from the miss's")
				}

				// A fresh server runs the variant, then answers the same bytes
				// through the full path: its memo has never seen them.
				fresh, fts := memoServer(t, Config{})
				postOK(t, "fresh miss", fts.URL, u.variant, u.query, u.body, "X-Request-ID", "fresh-0")
				code, full := postUpload(t, fts.URL, u.ct, u.query, u.body, "X-Request-ID", "memo-1")
				replyOK(t, "full-path hit", code, full)
				if st := fresh.Stats(); st.MemoHits != 0 || st.CacheHits != 1 {
					t.Fatalf("fresh server: memo hits %d, cache hits %d; want 0 and 1", st.MemoHits, st.CacheHits)
				}
				if !bytes.Equal(memo, full) {
					t.Fatalf("memo-hit reply differs from the full path's:\nmemo: %s\nfull: %s", memo, full)
				}

				postOK(t, "other Content-Type", ts.URL, u.variant, u.query, u.body)
				postOK(t, "other query", ts.URL, u.ct, u.query+"&v=1", u.body)
				if st := s.Stats(); st.MemoHits != 1 || st.CacheHits != 3 {
					t.Fatalf("another Content-Type or query: memo hits %d, cache hits %d; want 1 and 3", st.MemoHits, st.CacheHits)
				}
			})
		}
	}
}

// An Idempotency-Key retry is answered through the memo as the full path
// answers it: the stored answer, marked as a replay, and counted as one.
func TestMemoIdempotentReplay(t *testing.T) {
	s, ts := memoServer(t, Config{})
	u := memoUploads(t, true)[0]
	first := postOK(t, "first", ts.URL, u.ct, "", u.body, "X-Request-ID", "idem-0", "Idempotency-Key", "memo-key")
	code, full := postUpload(t, ts.URL, u.variant, "", u.body, "X-Request-ID", "idem-1", "Idempotency-Key", "memo-key")
	if r := replyOK(t, "full-path replay", code, full); !r.IdempotentReplay {
		t.Fatalf("full-path retry not a replay: %+v", r)
	}
	code, memo := postUpload(t, ts.URL, u.ct, "", u.body, "X-Request-ID", "idem-1", "Idempotency-Key", "memo-key")
	r := replyOK(t, "memo replay", code, memo)
	if !r.IdempotentReplay || !slices.Equal(r.Colors, first.Colors) {
		t.Fatalf("memo retry: replay=%v, colors equal=%v", r.IdempotentReplay, slices.Equal(r.Colors, first.Colors))
	}
	if !bytes.Equal(memo, full) {
		t.Fatalf("memo replay differs from the full path's:\nmemo: %s\nfull: %s", memo, full)
	}
	if st := s.Stats(); st.MemoHits != 1 || st.IdemHits != 2 || st.CacheHits != 0 || st.Requests != 3 {
		t.Fatalf("memo hits %d, idempotent hits %d, cache hits %d, requests %d; want 1, 2, 0, 3",
			st.MemoHits, st.IdemHits, st.CacheHits, st.Requests)
	}
}

// Resident uploads, no_cache requests, deltas (JSON and binary) and bodies
// that fail to decode are never memoized; a malformed body gets 400 every
// time.
func TestMemoNeverRecords(t *testing.T) {
	s, ts := memoServer(t, Config{})
	resident := marshalRequest(t, &ColorRequest{Gen: "grid:8:8", Resident: true})
	base := postOK(t, "resident", ts.URL, "application/json", "", resident)
	baseFp, err := ParseFingerprint(base.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	frame := graph.EncodeWireCSR(mustSpec(t, "grid:5:5"))
	for _, u := range []struct {
		name, ct, query string
		body            []byte
		status          int
	}{
		{"resident", "application/json", "", resident, http.StatusOK},
		{"resident frame", ContentTypeBinaryCSR, "resident=true", frame, http.StatusOK},
		{"no_cache", "application/json", "", marshalRequest(t, &ColorRequest{Gen: "grid:7:9", NoCache: true}), http.StatusOK},
		{"delta", "application/json", "", marshalRequest(t, &ColorRequest{BaseFingerprint: base.Fingerprint, AddEdges: [][2]int32{{0, 63}}}), http.StatusOK},
		{"binary delta", ContentTypeBinaryCSR, "", graph.EncodeWireDelta(baseFp, &graph.Delta{AddEdges: [][2]int32{{1, 62}}}), http.StatusOK},
		{"bad json", "application/json", "", []byte(`{"gen":`), http.StatusBadRequest},
		{"bad alg", "application/json", "", marshalRequest(t, &ColorRequest{Gen: "grid:6:6", Alg: "nope"}), http.StatusBadRequest},
		{"bad frame", ContentTypeBinaryCSR, "", []byte("GCSRjunk"), http.StatusBadRequest},
		{"bad query", ContentTypeBinaryCSR, "seed=x", frame, http.StatusBadRequest},
	} {
		for i := 0; i < 2; i++ {
			code, reply := postUpload(t, ts.URL, u.ct, u.query, u.body)
			if code != u.status {
				t.Fatalf("%s, try %d: status %d, want %d: %s", u.name, i, code, u.status, reply)
			}
			if strings.Contains(u.name, "delta") && !replyOK(t, u.name, code, reply).Delta {
				t.Fatalf("%s, try %d: not served as a delta: %s", u.name, i, reply)
			}
		}
	}
	if st := s.Stats(); st.MemoEntries != 0 || st.MemoHits != 0 {
		t.Fatalf("memo entries %d, hits %d; want none", st.MemoEntries, st.MemoHits)
	}
}

func mustSpec(t *testing.T, spec string) *graph.Graph {
	t.Helper()
	g, err := ParseGraphSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The epoch fence runs before the memo: a coordinator deposed since it
// sent an upload gets 409 for a repeat of it, and a malformed epoch 400,
// where the memo would have answered.
func TestMemoStaleEpoch(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	guard := &EpochGuard{}
	ts := httptest.NewServer(HandlerWith(s, HandlerConfig{Epoch: guard}))
	t.Cleanup(func() {
		ts.Close()
		s.Stop()
	})
	u := memoUploads(t, false)[0]
	for i := 0; i < 2; i++ {
		postOK(t, "epoch 5", ts.URL, u.ct, "", u.body, EpochHeader, "5")
	}
	postOK(t, "epoch 6", ts.URL, "application/json", "", marshalRequest(t, &ColorRequest{Gen: "grid:4:4"}), EpochHeader, "6")
	hits := s.Stats().MemoHits
	if hits != 1 {
		t.Fatalf("memo hits %d before the fence, want 1", hits)
	}
	for _, c := range []struct {
		epoch, kind string
		status      int
	}{{"5", "stale_epoch", http.StatusConflict}, {"x", "bad_request", http.StatusBadRequest}} {
		code, reply := postUpload(t, ts.URL, u.ct, "", u.body, EpochHeader, c.epoch)
		var er errorResponse
		if err := json.Unmarshal(reply, &er); err != nil || code != c.status || er.Kind != c.kind {
			t.Fatalf("epoch %s on a memoized body: status %d, body %s; want %d %s", c.epoch, code, reply, c.status, c.kind)
		}
	}
	if st := s.Stats(); st.MemoHits != hits || st.Requests != 3 {
		t.Fatalf("fenced repeats: memo hits %d, requests %d; want %d and 3", st.MemoHits, st.Requests, hits)
	}
}

// A draining server still answers memo hits — cache hits and idempotent
// replays — and still refuses fresh work.
func TestMemoDrain(t *testing.T) {
	s, ts := memoServer(t, Config{})
	ups := memoUploads(t, false)
	hit, keyed := ups[0], ups[1]
	postOK(t, "seed", ts.URL, hit.ct, "", hit.body)
	postOK(t, "keyed seed", ts.URL, keyed.ct, "", keyed.body, "Idempotency-Key", "dr-key")
	if _, err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	if r := postOK(t, "hit while draining", ts.URL, hit.ct, "", hit.body); !r.Cached {
		t.Fatalf("hit while draining not cached: %+v", r)
	}
	if r := postOK(t, "replay while draining", ts.URL, keyed.ct, "", keyed.body, "Idempotency-Key", "dr-key"); !r.IdempotentReplay {
		t.Fatalf("retry while draining not a replay: %+v", r)
	}
	if st := s.Stats(); st.MemoHits != 2 {
		t.Fatalf("memo hits %d, want 2", st.MemoHits)
	}
	fresh := marshalRequest(t, &ColorRequest{Gen: "grid:9:9"})
	if code, reply := postUpload(t, ts.URL, "application/json", "", fresh); code != http.StatusServiceUnavailable || !strings.Contains(string(reply), `"draining"`) {
		t.Fatalf("fresh work while draining: %d %s, want 503 draining", code, reply)
	}
}

// CacheEntries < 0 turns the cache off, and the memo with it.
func TestMemoOffWithoutCache(t *testing.T) {
	s, ts := memoServer(t, Config{CacheEntries: -1})
	u := memoUploads(t, false)[0]
	for i := 0; i < 2; i++ {
		postOK(t, "request", ts.URL, u.ct, "", u.body)
	}
	if st := s.Stats(); st.MemoEntries != 0 || st.MemoHits != 0 || st.Completed != 2 {
		t.Fatalf("memo entries %d, hits %d, completed %d; want 0, 0, 2", st.MemoEntries, st.MemoHits, st.Completed)
	}
}

// /metricsz reports the memo's hits and size, and the requests it answered.
func TestMemoMetrics(t *testing.T) {
	_, ts := memoServer(t, Config{})
	ups := memoUploads(t, false)
	a, b := ups[0].body, ups[1].body
	for _, body := range [][]byte{a, b, a, a, b} {
		postOK(t, "request", ts.URL, "application/json", "", body)
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"\nmemo_hits 3\n", "\nmemo_entries 2\n", "\nrequests_total 5\n", "\ncache_hits 3\n", "\nwarm_idem_rejected_total 0\n"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metricsz lacks %q:\n%s", strings.TrimSpace(want), text)
		}
	}
}

// Concurrent repeats of an upload share one execution and one coloring,
// including those that arrive while its first run is in flight, when the
// memo already names the key but the cache does not yet hold the answer:
// they fall through to the full path and coalesce.
func TestMemoConcurrentRepeats(t *testing.T) {
	s, ts := memoServer(t, Config{})
	ups := memoUploads(t, true)
	bodies := [][]byte{ups[0].body, ups[1].body}
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
				resp, err := http.Post(ts.URL+"/color", "application/json", bytes.NewReader(bodies[b]))
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
					return
				}
				var cr ColorResponse
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
	if st := s.Stats(); st.Completed != int64(len(bodies)) || st.Requests != callers*rounds {
		t.Fatalf("completed %d, requests %d for %d distinct uploads sent %d times", st.Completed, st.Requests, len(bodies), callers*rounds)
	}
	for b, as := range answers {
		for _, a := range as {
			if !slices.Equal(a, as[0]) {
				t.Fatalf("upload %d answered with two colorings", b)
			}
		}
	}
	before := s.Stats().MemoHits
	if r := postOK(t, "repeat", ts.URL, "application/json", "", bodies[0]); !r.Cached || s.Stats().MemoHits != before+1 {
		t.Fatalf("repeat after the burst: cached=%v, memo hits %d→%d", r.Cached, before, s.Stats().MemoHits)
	}
}

// A memo recall whose reply carries no colors leaves the stored coloring
// packed: it allocates less than one byte per vertex of the answer it
// recalls, where unpacking that coloring alone would take four.
func TestMemoRecallWithoutColorsSkipsUnpack(t *testing.T) {
	a := NewAdmission(Config{})
	upload := func() *Upload {
		return &Upload{ContentType: "application/json", Body: []byte(`{"gen":"grid:256:256","alg":"baseline"}`)}
	}
	first := upload()
	if _, ok := a.Recall(first, "", ""); ok {
		t.Fatal("recall answered an upload never decoded")
	}
	_, req, err := a.Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	n := req.Graph.NumVertices()
	if n < 1<<16 {
		t.Fatalf("graph has %d vertices, want at least 65536", n)
	}
	req.Fingerprint = req.Graph.Fingerprint()
	if _, err := a.Serve(context.Background(), req, 1, func() (*Response, error) {
		colors := color.Greedy(req.Graph, color.Natural, 0)
		return &Response{Fingerprint: req.Fingerprint, Colors: colors, NumColors: color.NumColors(colors), Shards: 1}, nil
	}); err != nil {
		t.Fatal(err)
	}

	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if out, ok := a.Recall(upload(), "", ""); !ok || !out.Cached || out.Colors != nil {
			t.Fatalf("recall %d: answered %v, reply %+v; want a cached reply without colors", i, ok, out)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= uint64(n) {
		t.Fatalf("a recall without colors allocated %d bytes for a %d-vertex answer; want fewer than one per vertex", per, n)
	}
}

// TestFullPathHitWithoutColorsSkipsUnpack: a cache hit reached after a
// request-memo miss (the same graph in another body) whose reply carries
// no colors neither unpacks nor copies the stored coloring; with
// include_colors it still gets a private copy of the colors.
func TestFullPathHitWithoutColorsSkipsUnpack(t *testing.T) {
	a := NewAdmission(Config{})
	serveBody := func(body string) *Response {
		t.Helper()
		up := &Upload{ContentType: "application/json", Body: []byte(body)}
		if _, ok := a.Recall(up, "", ""); ok {
			t.Fatalf("recall answered %s", body)
		}
		_, req, err := a.Decode(up)
		if err != nil {
			t.Fatal(err)
		}
		req.Fingerprint = req.Graph.Fingerprint()
		res, err := a.Serve(context.Background(), req, 1, func() (*Response, error) {
			colors := color.Greedy(req.Graph, color.Natural, 0)
			return &Response{Fingerprint: req.Fingerprint, Colors: colors, NumColors: color.NumColors(colors), Shards: 1}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := serveBody(`{"gen":"grid:256:256","alg":"baseline","include_colors":true}`)
	n := len(first.Colors)
	if n < 1<<16 {
		t.Fatalf("graph has %d vertices, want at least 65536", n)
	}

	// Each body differs from every other by its whitespace, so each one
	// misses the memo and is decoded.
	const runs = 16
	var before, after runtime.MemStats
	bare := 0
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		body := fmt.Sprintf(`{"gen":"grid:256:256","alg":"baseline",%*s"seed":0}`, i, "")
		if res := serveBody(body); res.Cached && res.Colors == nil {
			bare++
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d of %d hits without colors, %d bytes per hit for %d vertices", bare, runs, per, n)
	if bare != runs || per >= uint64(n) {
		t.Fatalf("want every hit cached without colors and fewer bytes than vertices")
	}

	res := serveBody(`{"gen":"grid:256:256","alg":"baseline","seed":0,"include_colors":true}`)
	if !res.Cached || !slices.Equal(res.Colors, first.Colors) {
		t.Fatalf("hit with include_colors: cached %v, colors equal %v", res.Cached, slices.Equal(res.Colors, first.Colors))
	}
}
