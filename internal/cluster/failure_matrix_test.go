package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gcolor/internal/gen"
	"gcolor/internal/graph"
	"gcolor/internal/serve"
)

// matrixWorker is a fake worker whose /color answers with a coloring of
// the request's shard frame plus extra colors (one color for a request
// without a frame), or, when status is not 200, with a typed error.
func matrixWorker(t *testing.T, status int, kind string, extra int) (*httptest.Server, *atomic.Int64) {
	calls := new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if status != http.StatusOK {
			serve.WriteError(w, status, kind, kind, "")
			return
		}
		var cr serve.ColorRequest
		if err := json.NewDecoder(r.Body).Decode(&cr); err != nil {
			serve.WriteError(w, http.StatusBadRequest, "bad_request", err.Error(), "")
			return
		}
		n := 1
		if cr.GraphCSRB64 != "" {
			frame, _ := base64.StdEncoding.DecodeString(cr.GraphCSRB64)
			if g, _, err := graph.DecodeWireCSR(frame); err == nil {
				n = g.NumVertices()
			}
		}
		_ = json.NewEncoder(w).Encode(&serve.ColorResponse{
			Fingerprint: "00000000000000aa", Colors: make([]int32, n+extra), NumColors: 1,
		})
	}))
	t.Cleanup(ts.Close)
	return ts, calls
}

// TestWorkerCallFailureMatrix runs every row of DESIGN's failure matrix
// through the one worker-call loop, by way of its three callers (a whole
// graph's route, a delta's route and a shard's dispatch): the first
// worker called fails as the row says, and a healthy second worker stands
// by. Each row checks whether the call failed over to it, what the
// failing worker's health score and breaker observed, and which counter
// moved.
func TestWorkerCallFailureMatrix(t *testing.T) {
	const successor = 0xaa // the fingerprint matrixWorker's replies carry
	rows := []struct {
		name   string
		path   string // "route", "delta" or "shard"
		status int    // the failing worker's reply; 0: the worker is gone
		kind   string
		extra  int // colors a 200 reply carries beyond the shard's vertices

		failover bool    // the healthy worker answered
		observed bool    // the failing worker's outcome was scored...
		broken   bool    // ...as a breaker failure
		score    float64 // its health score after the call

		routeFailovers, redispatches, ownerHits, ownerMisses int64
		errKind                                              string // the error's worker kind; "" for success
	}{
		{name: "transport error", path: "route", failover: true, observed: true, broken: true, score: 0.8,
			routeFailovers: 1},
		{name: "429 overload", path: "route", status: 429, kind: "queue_full", failover: true, observed: true, score: 0.9,
			routeFailovers: 1},
		{name: "503 unavailable", path: "shard", status: 503, kind: "draining", failover: true, observed: true, broken: true, score: 0.8,
			redispatches: 1},
		{name: "other 4xx", path: "route", status: 400, kind: "bad_request", observed: true, score: 1,
			errKind: "bad_request"},
		{name: "delta 404 unknown_base", path: "delta", status: 404, kind: "unknown_base", observed: true, score: 1,
			ownerHits: 1, errKind: "unknown_base"},
		{name: "delta 503 fails over off the owner", path: "delta", status: 503, kind: "failed", failover: true, observed: true, broken: true, score: 0.8,
			routeFailovers: 1, ownerHits: 1, ownerMisses: 1},
		{name: "409 stale_epoch", path: "route", status: 409, kind: "stale_epoch", score: 1,
			errKind: "stale_epoch"},
		{name: "shard reply with the wrong color count", path: "shard", status: 200, extra: 1, observed: true, score: 1,
			errKind: "bad_shard_reply"},
	}
	sub := gen.Grid2D(3, 3)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			bad, _ := matrixWorker(t, row.status, row.kind, row.extra)
			if row.status == 0 {
				bad.Close() // connections are refused: a transport error
			}
			good, goodCalls := matrixWorker(t, http.StatusOK, "", 0)
			c := NewCoordinator(Config{Peers: []string{bad.URL, good.URL}, HeartbeatInterval: -1})
			defer c.Close()
			// One latency for every call, so that a score moves by its
			// reward alone: 1 - 0.2*(1 - reward) from a fresh 1.
			flat := func(string, time.Duration) time.Duration { return time.Millisecond }
			c.reg.latency.Store(&flat)
			badM := c.reg.lookup(bad.URL)

			// A fingerprint whose route key and shard 0 key (dispatchShard's
			// mix of the two) both rank the failing worker first.
			var fp uint64
			for fp = 1; ; fp++ {
				m1, _, _ := c.reg.pick(fp, nil)
				m2, _, _ := c.reg.pick(mix64(fp^0x9e3779b97f4a7c15), nil)
				if m1 == badM && m2 == badM {
					break
				}
			}
			ctx := context.Background()
			var resp *serve.Response
			var err error
			switch row.path {
			case "route":
				resp, err = c.route(ctx, &serve.ColorRequest{Gen: "grid:3:3"}, &serve.Request{Fingerprint: fp})
			case "delta":
				c.owners.Put(fp, bad.URL)
				resp, err = c.routeDelta(ctx, &serve.ColorRequest{}, &serve.Request{BaseFingerprint: fp})
			case "shard":
				var tries int
				resp, tries, err = c.dispatchShard(ctx, sub, &serve.ColorRequest{}, &serve.Request{Fingerprint: fp}, 0, 2)
				var se *ShardError
				if err != nil && (!errors.As(err, &se) || se.Attempts != tries || tries != 1) {
					t.Fatalf("shard error %v after %d tries, want a *ShardError of its 1 try", err, tries)
				}
			}

			if got := goodCalls.Load() == 1; got != row.failover {
				t.Fatalf("failed over: %v (%d calls to the healthy worker), want %v", got, goodCalls.Load(), row.failover)
			}
			var we *WorkerError
			switch {
			case row.errKind == "" && err != nil:
				t.Fatalf("err = %v, want the healthy worker's reply", err)
			case row.errKind == "":
				if resp.Worker != "" && resp.Worker != good.URL || row.path != "shard" && resp.Redispatched != 1 {
					t.Fatalf("reply from %q redispatched %d, want %s after 1 failover", resp.Worker, resp.Redispatched, good.URL)
				}
			case !errors.As(err, &we) || we.Kind != row.errKind || we.Worker != bad.URL:
				t.Fatalf("err = %v, want the failing worker's %s", err, row.errKind)
			}

			badM.mu.Lock()
			observed := badM.lat.n
			badM.mu.Unlock()
			if got := observed == 1; got != row.observed {
				t.Fatalf("failing worker scored %d outcomes, want observed %v", observed, row.observed)
			}
			if got := badM.failures.Load() == 1; got != row.broken {
				t.Fatalf("failing worker breaker failures %d, want failure %v", badM.failures.Load(), row.broken)
			}
			if got := c.reg.health.Score(badM.id); math.Abs(got-row.score) > 1e-9 {
				t.Fatalf("failing worker health %.3f, want %.3f", got, row.score)
			}
			st := c.Stats()
			if st.RouteFailovers != row.routeFailovers || st.Redispatches != row.redispatches ||
				st.DeltaOwnerHits != row.ownerHits || st.DeltaOwnerMisses != row.ownerMisses {
				t.Fatalf("route_failovers %d, redispatches %d, delta owner hits %d misses %d; want %d, %d, %d, %d",
					st.RouteFailovers, st.Redispatches, st.DeltaOwnerHits, st.DeltaOwnerMisses,
					row.routeFailovers, row.redispatches, row.ownerHits, row.ownerMisses)
			}
			if stale := row.kind == "stale_epoch"; (st.StaleRejects == 1) != stale || st.Fenced != stale {
				t.Fatalf("stale rejects %d, fenced %v; want fenced only on stale_epoch", st.StaleRejects, st.Fenced)
			}
			if row.path == "delta" {
				// The hint follows the version: gone after unknown_base, on
				// the worker that answered after a failover.
				owner, _ := c.owners.Get(fp)
				next, _ := c.owners.Get(successor)
				want := ""
				if row.failover {
					want = good.URL
				}
				if owner != want || next != want {
					t.Fatalf("owner hints: base %q, successor %q; want %q for both", owner, next, want)
				}
			}
		})
	}
}
