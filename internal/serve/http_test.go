package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcolor/internal/color"
)

func postColor(t *testing.T, ts *httptest.Server, body ColorRequest) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/color", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST /color: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode == http.StatusOK {
		checkReplyIsEncodingJSON(t, buf.Bytes())
	}
	return resp, buf.Bytes()
}

func TestHTTPColorGenSpec(t *testing.T) {
	s := NewServer(Config{Devices: 2})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, body := postColor(t, ts, ColorRequest{Gen: "grid:6:6", Alg: "hybrid", IncludeColors: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr ColorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if cr.Vertices != 36 || cr.NumColors < 2 {
		t.Fatalf("unexpected response: %+v", cr)
	}
	if len(cr.Colors) != 36 {
		t.Fatalf("include_colors returned %d colors, want 36", len(cr.Colors))
	}
	g, err := ParseGraphSpec("grid:6:6")
	if err != nil {
		t.Fatal(err)
	}
	if err := color.Verify(g, cr.Colors); err != nil {
		t.Fatalf("returned coloring invalid: %v", err)
	}

	// Same request again: served from cache, flagged as such.
	resp2, body2 := postColor(t, ts, ColorRequest{Gen: "grid:6:6", Alg: "hybrid"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	var cr2 ColorResponse
	if err := json.Unmarshal(body2, &cr2); err != nil {
		t.Fatalf("unmarshal 2: %v", err)
	}
	if !cr2.Cached || cr2.Device != -1 {
		t.Fatalf("repeat request not cached: %+v", cr2)
	}
	if len(cr2.Colors) != 0 {
		t.Fatal("colors echoed without include_colors")
	}
	if cr2.Fingerprint != cr.Fingerprint {
		t.Fatalf("fingerprint changed between identical requests: %s vs %s", cr.Fingerprint, cr2.Fingerprint)
	}
}

func TestHTTPColorInlineGraph(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, body := postColor(t, ts, ColorRequest{Graph: "0 1\n1 2\n2 0\n", IncludeColors: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr ColorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if cr.Vertices != 3 || cr.Edges != 3 || cr.NumColors != 3 {
		t.Fatalf("triangle response: %+v", cr)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	cases := []ColorRequest{
		{},                                     // no graph source
		{Gen: "grid:2:2", Graph: "0 1\n"},      // both sources
		{Gen: "bogus:1:2"},                     // unknown spec
		{Gen: "grid:2:2", Alg: "nope"},         // unknown algorithm
		{Gen: "grid:2:2", Policy: "nope"},      // unknown policy
		{Gen: "grid:2:2", Priority: "extreme"}, // unknown priority
	}
	for i, c := range cases {
		resp, body := postColor(t, ts, c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (%s)", i, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Kind != "bad_request" {
			t.Errorf("case %d: error body %s", i, body)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/color", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPHealthzMetricsz(t *testing.T) {
	s := NewServer(Config{Devices: 3})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string `json:"status"`
		Devices int    `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Devices != 3 {
		t.Fatalf("healthz: %+v", hz)
	}

	// Generate some traffic, then check the counters show up.
	postColor(t, ts, ColorRequest{Gen: "grid:5:5"})
	postColor(t, ts, ColorRequest{Gen: "grid:5:5"})

	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"requests_total 2",
		"cache_hits 1",
		"completed_total 1",
		"cache_hit_rate 0.5",
		"device_utilization ",
		"wait_us.count ",
		"exec_us.p99 ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metricsz missing %q:\n%s", want, text)
		}
	}
}

func TestHTTPRequestTimeout(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// A deadline far below the request's own execution time (rmat:10 takes
	// on the order of 100ms simulated-device wall time, the deadline is
	// 1ms) must come back 504, whether it expires in the queue or at an
	// iteration boundary mid-run.
	resp, body := postColor(t, ts, ColorRequest{Gen: "rmat:10:16:1", NoCache: true, TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "deadline" {
		t.Fatalf("error body: %s", body)
	}
}

// TestHTTPBodyLimit pins the POST /color body cap at its exact boundary:
// a body of precisely the configured limit decodes and serves, one byte
// past it is refused with 413 and the typed "too_large" error body before
// any graph parsing runs.
func TestHTTPBodyLimit(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	const limit = 512
	ts := httptest.NewServer(HandlerWith(s, HandlerConfig{MaxBodyBytes: limit}))
	defer ts.Close()

	// Pad a valid request up to an exact byte size with an ignored field.
	padded := func(size int) []byte {
		base := `{"gen":"grid:4:4","pad":""}`
		pad := size - len(base)
		if pad < 0 {
			t.Fatalf("size %d below base request %d", size, len(base))
		}
		return []byte(`{"gen":"grid:4:4","pad":"` + strings.Repeat("x", pad) + `"}`)
	}

	post := func(body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/color", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("read body: %v", err)
		}
		return resp, buf.Bytes()
	}

	atLimit := padded(limit)
	if len(atLimit) != limit {
		t.Fatalf("padded body is %d bytes, want %d", len(atLimit), limit)
	}
	resp, body := post(atLimit)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at-limit body: status %d (%s)", resp.StatusCode, body)
	}

	resp, body = post(padded(limit + 1))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: status %d, want 413 (%s)", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "too_large" {
		t.Fatalf("over-limit error body: %s", body)
	}
}

// TestHTTPShardedRequest drives the shards knob through the wire format
// and checks the shard evidence comes back.
func TestHTTPShardedRequest(t *testing.T) {
	s := NewServer(Config{Devices: 2, Device: DeviceConfig{Workers: 1}})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, body := postColor(t, ts, ColorRequest{Gen: "rmat:10:8:1", Shards: 2, IncludeColors: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var cr ColorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cr.Shards != 2 {
		t.Fatalf("shards = %d, want 2", cr.Shards)
	}
	if cr.Device != -1 {
		t.Fatalf("device = %d, want -1", cr.Device)
	}
	g, err := ParseGraphSpec("rmat:10:8:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := color.Verify(g, cr.Colors); err != nil {
		t.Fatalf("returned coloring invalid: %v", err)
	}
}

// TestReadBody: ReadBody returns the whole body whether the declared
// length is exact, unknown, short of the body or unbounded by a limit,
// and refuses a body over the limit with *http.MaxBytesError.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0 1\n"), 300)
	for _, c := range []struct {
		name            string
		declared, limit int64
		tooBig          bool
	}{
		{"exact", int64(len(body)), 4096, false},
		{"at limit", int64(len(body)), int64(len(body)), false},
		{"unknown", -1, 4096, false},
		{"short", 10, 4096, false},
		{"no limit", int64(len(body)), 0, false},
		{"over limit", int64(len(body)), 1000, true},
		{"unknown over limit", -1, 1000, true},
	} {
		r := httptest.NewRequest(http.MethodPost, "/color", bytes.NewReader(body))
		r.ContentLength = c.declared
		got, err := ReadBody(httptest.NewRecorder(), r, c.limit)
		var tooBig *http.MaxBytesError
		switch {
		case c.tooBig && !errors.As(err, &tooBig):
			t.Errorf("%s: err %v, want *http.MaxBytesError", c.name, err)
		case !c.tooBig && (err != nil || !bytes.Equal(got, body)):
			t.Errorf("%s: read %d bytes, err %v; want the %d-byte body", c.name, len(got), err, len(body))
		}
	}
}
