package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gen"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
)

func postBinaryCSR(t *testing.T, ts *httptest.Server, frame []byte, query, contentType string) (*http.Response, []byte) {
	t.Helper()
	url := ts.URL + "/color"
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST binary: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestBinaryCSRIngest drives the binary CSR fast path end to end: a frame
// POSTed with options in the query string colors correctly, lands in the
// same cache slot as its JSON twin (same fingerprint, same policy key —
// the wire format is invisible to everything past ingest), and corrupt
// frames or bad query options fail with 400 before any work is queued.
func TestBinaryCSRIngest(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	g := gen.GNM(150, 450, 3)
	frame := graph.EncodeWireCSR(g)

	resp, body := postBinaryCSR(t, ts, frame,
		"alg=hybrid&seed=9&include_colors=true", ContentTypeBinaryCSR)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary POST status %d: %s", resp.StatusCode, body)
	}
	var bin ColorResponse
	if err := json.Unmarshal(body, &bin); err != nil {
		t.Fatal(err)
	}
	if bin.Vertices != 150 || len(bin.Colors) != 150 {
		t.Fatalf("binary response: %+v", bin)
	}
	if err := color.Verify(g, bin.Colors); err != nil {
		t.Fatalf("binary-ingested coloring invalid: %v", err)
	}

	// The JSON twin of the same graph and options must hit the cache entry
	// the binary request populated: same streaming fingerprint, same key.
	var el bytes.Buffer
	if err := graph.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	resp, body = postColor(t, ts, ColorRequest{Graph: el.String(), Alg: "hybrid", Seed: 9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON twin status %d: %s", resp.StatusCode, body)
	}
	var js ColorResponse
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if !js.Cached {
		t.Fatalf("JSON twin missed the binary request's cache entry: %+v", js)
	}
	if js.Fingerprint != bin.Fingerprint {
		t.Fatalf("fingerprint differs across wire formats: %s vs %s", js.Fingerprint, bin.Fingerprint)
	}

	if got := s.Stats().WireBinaryRequests; got != 1 {
		t.Fatalf("WireBinaryRequests = %d, want 1", got)
	}
	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(mbuf.String(), "wire_binary_requests_total 1") {
		t.Fatalf("metricsz missing wire_binary_requests_total 1:\n%s", mbuf.String())
	}

	// Media-type parameters are ignored when matching.
	resp, body = postBinaryCSR(t, ts, frame, "alg=hybrid&seed=9", ContentTypeBinaryCSR+"; charset=utf-8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parameterized content type: status %d: %s", resp.StatusCode, body)
	}

	// Failure modes: truncated frame, garbage magic, unparsable option, and
	// a query that does not parse (which would otherwise lose the options
	// after the fault and run under defaults).
	for name, tc := range map[string]struct {
		frame []byte
		query string
		msg   string
	}{
		"truncated":  {frame[:len(frame)-4], "", ""},
		"bad magic":  {[]byte("nope, not a frame"), "", ""},
		"bad option": {frame, "seed=banana", ""},
		"bad escape": {frame, "alg=hybrid&seed=%zz&include_colors=true", `query: invalid URL escape "%zz"`},
		"semicolon":  {frame, "alg=hybrid;seed=5", "query: invalid semicolon separator in query"},
	} {
		resp, body := postBinaryCSR(t, ts, tc.frame, tc.query, ContentTypeBinaryCSR)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Kind != "bad_request" || !strings.Contains(er.Error, tc.msg) {
			t.Errorf("%s: error body %s", name, body)
		}
	}
}

// TestBinaryIngestJournalReplay pins the replay envelope: a binary upload
// journals a JSON ColorRequest carrying the frame base64-wrapped, so a
// restarted server can warm its cache from the completion and re-run a
// crash-interrupted binary job from the accept record alone.
func TestBinaryIngestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 1, Journal: j1, Recovery: rec1})
	ts1 := httptest.NewServer(Handler(s1))

	served := gen.GNM(120, 360, 11)
	resp, body := postBinaryCSR(t, ts1, graph.EncodeWireCSR(served), "alg=jp", ContentTypeBinaryCSR)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gen 1 binary POST: status %d: %s", resp.StatusCode, body)
	}
	var first ColorResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Stop()

	// Fabricate a crash-interrupted binary job: an accept record whose wire
	// payload is exactly the envelope handleColor synthesizes, with no
	// completion behind it.
	pending := gen.Grid2D(9, 9)
	env, err := json.Marshal(&ColorRequest{
		GraphCSRB64: base64.StdEncoding.EncodeToString(graph.EncodeWireCSR(pending)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.AppendAccept(journal.AcceptRecord{
		ID: "bin-crash", Wire: env, AcceptedUnixMS: time.Now().UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := openTestJournal(t, dir)
	if len(rec2.Completions) < 1 || len(rec2.Pending) != 1 {
		t.Fatalf("recovered %d completions / %d pending, want >=1 / 1",
			len(rec2.Completions), len(rec2.Pending))
	}
	s2 := NewServer(Config{Devices: 1, Journal: j2, Recovery: rec2})
	defer func() { s2.Stop(); j2.Close() }()
	select {
	case <-s2.RecoveryDone():
	case <-time.After(10 * time.Second):
		t.Fatal("recovery did not settle")
	}
	if ri := s2.RecoveryInfo(); ri.ReplayCompleted != 1 || ri.ReplayFailed != 0 {
		t.Fatalf("replay verdict: %+v", ri)
	}

	// The served graph answers warm, under the same fingerprint, whichever
	// wire format asks.
	ts2 := httptest.NewServer(Handler(s2))
	defer ts2.Close()
	resp, body = postBinaryCSR(t, ts2, graph.EncodeWireCSR(served), "alg=jp", ContentTypeBinaryCSR)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gen 2 binary POST: status %d: %s", resp.StatusCode, body)
	}
	var warm ColorResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.Fingerprint != first.Fingerprint {
		t.Fatalf("restarted server not warm for binary request: %+v vs %+v", warm, first)
	}

	// The replayed crash job is servable from cache too.
	resp, body = postBinaryCSR(t, ts2, graph.EncodeWireCSR(pending), "", ContentTypeBinaryCSR)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed graph POST: status %d: %s", resp.StatusCode, body)
	}
	var replayed ColorResponse
	if err := json.Unmarshal(body, &replayed); err != nil {
		t.Fatal(err)
	}
	if !replayed.Cached {
		t.Fatalf("crash-replayed binary job's result not cached: %+v", replayed)
	}
}

// TestBinaryJournalEnvelopeOnlyWhenJournaled: a binary upload's replay
// envelope is built only for a job that is journaled. A miss journals
// accept bytes equal to the envelope — the query options as a
// ColorRequest with the frame base64-wrapped in graph_csr_b64 — which
// crash replay re-runs; a cache hit and an idempotent replay append
// nothing to the journal.
func TestBinaryJournalEnvelopeOnlyWhenJournaled(t *testing.T) {
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 1, Journal: j1, Recovery: rec1})
	ts1 := httptest.NewServer(Handler(s1))

	frame := graph.EncodeWireCSR(gen.GNM(150, 450, 3))
	const query = "alg=jp&seed=5&resident=true"
	post := func(idemKey string) ColorResponse {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts1.URL+"/color?"+query, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ContentTypeBinaryCSR)
		if idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out ColorResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary POST status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if miss := post("env-key"); miss.Cached {
		t.Fatalf("first upload answered from cache: %+v", miss)
	}
	appends := j1.Stats().Appends
	if hit := post(""); !hit.Cached || hit.IdempotentReplay {
		t.Fatalf("repeat upload is not a plain cache hit: %+v", hit)
	}
	if again := post("env-key"); !again.IdempotentReplay {
		t.Fatalf("retry is not an idempotent replay: %+v", again)
	}
	if got := j1.Stats().Appends; got != appends {
		t.Fatalf("a cache hit and an idempotent replay appended %d journal records", got-appends)
	}
	ts1.Close()
	s1.Stop()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := json.Marshal(&ColorRequest{Alg: "jp", Seed: 5, Resident: true,
		GraphCSRB64: base64.StdEncoding.EncodeToString(frame)})
	if err != nil {
		t.Fatal(err)
	}
	j2, rec2 := openTestJournal(t, dir)
	if len(rec2.Settled) != 1 {
		t.Fatalf("recovered %d settled versions, want 1", len(rec2.Settled))
	}
	if got := rec2.Settled[0].Accept.Wire; !bytes.Equal(got, want) {
		t.Fatalf("journaled accept wire\n%s\nwant the envelope\n%s", got, want)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash replay: the journaled bytes alone, accepted with no completion
	// behind them, rebuild and re-run the job.
	j3, _ := openTestJournal(t, t.TempDir())
	if err := j3.AppendAccept(journal.AcceptRecord{
		ID: "env-crash", Wire: want, AcceptedUnixMS: time.Now().UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	j4, rec4 := openTestJournal(t, j3.Dir())
	s4 := NewServer(Config{Devices: 1, Journal: j4, Recovery: rec4})
	defer func() { s4.Stop(); j4.Close() }()
	select {
	case <-s4.RecoveryDone():
	case <-time.After(10 * time.Second):
		t.Fatal("recovery did not settle")
	}
	if ri := s4.RecoveryInfo(); ri.ReplayCompleted != 1 || ri.ReplayFailed != 0 {
		t.Fatalf("replay verdict: %+v", ri)
	}
}

// TestBinaryIngestAllocBudget is the ingest allocation gate: steady-state,
// each wire format may allocate at most maxIngestAllocs objects per
// request for gnm:2000:8000. Every measured request answers from cache, so
// the measurement isolates ingest (body read, memo digest, decode, request
// build, response encode) from coloring. Each carries bytes the request
// memo has not seen that decode to the same graph and cache key — the JSON
// body behind leading whitespace, the frame under a Content-Type parameter
// — so each is decoded, not recalled: memo_hits must not move. The JSON
// path parses its edge list in place with no allocation per line, so the
// cap holds for both formats; a ratio between the two would no longer say
// anything about either. A second measurement repeats one upload per
// format, which the memo answers, under maxMemoHitAllocs.
func TestBinaryIngestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budget only holds without it")
	}
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	h := Handler(s)

	g := gen.GNM(2000, 8000, 1)
	frame := graph.EncodeWireCSR(g)
	var el bytes.Buffer
	if err := graph.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(&ColorRequest{Graph: el.String()})
	if err != nil {
		t.Fatal(err)
	}

	do := func(body []byte, contentType string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/color", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
	}

	// Warm both paths (and the result cache and memo) so the measured runs
	// are pure ingest + cache hit, or pure memo hit.
	do(jsonBody, "application/json")
	do(frame, ContentTypeBinaryCSR)

	const runs = 8
	type upload struct {
		body        []byte
		contentType string
	}
	fresh := func(i int, contentType string, body []byte) upload {
		if contentType == ContentTypeBinaryCSR {
			return upload{body, contentType + "; run=" + strconv.Itoa(i)}
		}
		return upload{append(bytes.Repeat([]byte(" "), i+1), body...), contentType}
	}
	measure := func(ups []upload) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, up := range ups {
			do(up.body, up.contentType)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}
	memoHits := s.reg.Counter("memo_hits")
	fallbacks := s.reg.Counter("wire_json_fallback_total")

	var jsonUps, binUps, jsonRepeats, binRepeats []upload
	for i := 0; i < runs; i++ {
		jsonUps = append(jsonUps, fresh(i, "application/json", jsonBody))
		binUps = append(binUps, fresh(i, ContentTypeBinaryCSR, frame))
		jsonRepeats = append(jsonRepeats, upload{jsonBody, "application/json"})
		binRepeats = append(binRepeats, upload{frame, ContentTypeBinaryCSR})
	}
	hits0, cacheHits0 := memoHits.Value(), s.reg.Counter("cache_hits").Value()
	jsonAllocs := measure(jsonUps)
	binAllocs := measure(binUps)
	if n := memoHits.Value() - hits0; n != 0 {
		t.Fatalf("%d of the ingest measurement's requests were memo hits, want none", n)
	}
	if n := s.reg.Counter("cache_hits").Value() - cacheHits0; n != 2*runs {
		t.Fatalf("%d of the ingest measurement's %d requests were cache hits", n, 2*runs)
	}
	if n := fallbacks.Value(); n != 0 {
		t.Fatalf("%d JSON bodies left the one-pass decoder", n)
	}
	jsonMemoAllocs := measure(jsonRepeats)
	binMemoAllocs := measure(binRepeats)
	if n := memoHits.Value() - hits0; n != 2*runs {
		t.Fatalf("%d of the repeats' %d requests were memo hits", n, 2*runs)
	}
	t.Logf("per-request ingest allocations: json=%d binary=%d; memo hit: json=%d binary=%d",
		jsonAllocs, binAllocs, jsonMemoAllocs, binMemoAllocs)
	for _, c := range []struct {
		path        string
		allocs, cap uint64
	}{
		{"json ingest", jsonAllocs, maxIngestAllocs},
		{"binary ingest", binAllocs, maxIngestAllocs},
		{"json memo hit", jsonMemoAllocs, maxMemoHitAllocs},
		{"binary memo hit", binMemoAllocs, maxMemoHitAllocs},
	} {
		if c.allocs > c.cap {
			t.Errorf("%s allocates %d objects/request, cap %d", c.path, c.allocs, c.cap)
		}
	}
}

// maxIngestAllocs caps one cached upload's allocations on either wire
// format, and maxMemoHitAllocs one repeated upload's. This test is the
// only place the caps are checked; it skips under the race detector, so
// CI's bench-smoke job runs it without one.
const (
	maxIngestAllocs  = 64
	maxMemoHitAllocs = 44
)
