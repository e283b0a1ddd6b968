package cluster_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gcolor/internal/cluster"
	"gcolor/internal/serve"
)

var fuzzCoord struct {
	once sync.Once
	ts   *httptest.Server
}

// fuzzJoinServer is one shared coordinator HTTP endpoint for the whole
// fuzz run; per-input servers would dominate the iteration cost.
func fuzzJoinServer() *httptest.Server {
	fuzzCoord.once.Do(func() {
		c := cluster.NewCoordinator(cluster.Config{
			Epoch:             3,
			HeartbeatInterval: -1,
		})
		fuzzCoord.ts = httptest.NewServer(cluster.Handler(c))
	})
	return fuzzCoord.ts
}

// FuzzClusterWire drives arbitrary bytes through the control-plane wire
// parsers and the live join endpoint. Invariants: no input panics, every
// parse failure is a typed error, and the endpoint answers only with the
// documented statuses (200 join, 400 malformed, 409 stale epoch).
func FuzzClusterWire(f *testing.F) {
	f.Add([]byte(`{"addr":"http://10.0.0.7:8421","id":"w-abc123","epoch":3}`))
	f.Add([]byte(`{"addr":"10.0.0.7:8421"}`))
	f.Add([]byte(`{"addr":"http://a","epoch":99}`))             // future epoch: stale coordinator
	f.Add([]byte(`{"addr":"http://a","epoch":1}`))              // past epoch: worker behind
	f.Add([]byte(`{"addr":"","id":""}`))                        // empty
	f.Add([]byte(`{"addr":"ftp://x"}`))                         // bad scheme
	f.Add([]byte(`{"addr":"http://a","id":"has,comma"}`))       // invalid instance ID
	f.Add([]byte(`{"addr":"http://a","id":"dup"}`))             // duplicate instance
	f.Add([]byte(`{"epoch":18446744073709551615}`))             // max epoch, no addr
	f.Add([]byte(`[1,2,3]`))                                    // wrong JSON shape
	f.Add([]byte(`{"addr":` + string(make([]byte, 600)) + `}`)) // oversized garbage
	f.Add([]byte("\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		jr, err := cluster.ParseJoinRequest(data)
		if err == nil {
			// A request the parser accepted must survive the coordinator's
			// own Join: parse is the only gate for malformed input.
			if jr.Addr == "" {
				t.Fatalf("parsed join with empty addr from %q", data)
			}
		}

		resp, herr := http.Post(fuzzJoinServer().URL+"/cluster/join", "application/json", bytes.NewReader(data))
		if herr != nil {
			t.Fatalf("join post: %v", herr)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("join answered http %d for %q", resp.StatusCode, data)
		}
		if err != nil && resp.StatusCode == http.StatusOK {
			// The endpoint reads the same bytes through the same parser; it
			// cannot accept what the parser refused.
			t.Fatalf("parser refused (%v) but endpoint accepted %q", err, data)
		}
	})
}

// FuzzValidateEpoch pins the fencing rule: epochs below current are the
// typed stale error, zero always passes (unfenced legacy workers), and
// nothing panics.
func FuzzValidateEpoch(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(3), uint64(2))
	f.Add(uint64(3), uint64(3))
	f.Add(uint64(3), uint64(0))
	f.Add(uint64(1), ^uint64(0))
	f.Fuzz(func(t *testing.T, current, got uint64) {
		e, err := cluster.ValidateEpoch(current, got)
		stale := got > 0 && got < current
		if stale {
			if err == nil || !errors.Is(err, cluster.ErrStaleEpoch) {
				t.Fatalf("ValidateEpoch(%d, %d) = %v, want ErrStaleEpoch", current, got, err)
			}
			return
		}
		want := got
		if got == 0 {
			want = current // unfenced caller adopts the incumbent epoch
		}
		if err != nil || e != want {
			t.Fatalf("ValidateEpoch(%d, %d) = %d, %v; want %d, nil", current, got, e, err, want)
		}
	})
}

// FuzzParseEpochHeader pins the worker-side header parse: empty means
// unfenced, anything non-numeric is an error, and no input panics or
// ratchets the guard backwards.
func FuzzParseEpochHeader(f *testing.F) {
	f.Add("")
	f.Add("0")
	f.Add("18446744073709551615")
	f.Add("-1")
	f.Add("banana")
	f.Fuzz(func(t *testing.T, h string) {
		e, err := serve.ParseEpoch(h)
		if h == "" && (e != 0 || err != nil) {
			t.Fatalf("ParseEpoch(%q) = %d, %v; want 0, nil", h, e, err)
		}
		g := &serve.EpochGuard{}
		g.Observe(5)
		if err == nil {
			g.Observe(e)
		}
		if g.Current() < 5 {
			t.Fatalf("guard ratcheted down to %d via %q", g.Current(), h)
		}
	})
}
