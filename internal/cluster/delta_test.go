package cluster_test

import (
	"net/http"
	"testing"

	"gcolor/internal/cluster"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
)

// A resident upload routes whole (never scattered) and binds the version
// to one worker; every delta in the mutation chain then lands on that same
// worker's resident store, served by its incremental path.
func TestDeltaRoutesToVersionOwner(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	w3 := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{
		// Low thresholds so the resident upload WOULD scatter if the
		// resident pin did not force whole-graph routing.
		Shard: shard.Policy{AutoVertices: 10},
	}, w1, w2, w3)

	base, code, kind := postColor(t, ts.URL, &serve.ColorRequest{Gen: "grid:8:8", Resident: true}, "rid-base", "")
	if code != http.StatusOK {
		t.Fatalf("resident upload: %d (%s)", code, kind)
	}
	if base.Scattered {
		t.Fatal("resident upload was scattered; no worker holds the full graph")
	}
	if base.Worker == "" {
		t.Fatal("resident upload reply has no worker attribution")
	}

	d1, code, kind := postColor(t, ts.URL, &serve.ColorRequest{
		BaseFingerprint: base.Fingerprint,
		AddEdges:        [][2]int32{{0, 63}},
	}, "rid-d1", "")
	if code != http.StatusOK {
		t.Fatalf("delta 1: %d (%s)", code, kind)
	}
	if !d1.Delta {
		t.Fatalf("delta 1 was not served by the incremental engine: %+v", d1)
	}
	if d1.Worker != base.Worker {
		t.Fatalf("delta 1 routed to %s, owner is %s", d1.Worker, base.Worker)
	}

	// Chain: the successor's owner binding routes delta 2 to the same
	// worker even though its fingerprint rendezvous-ranks differently.
	d2, code, kind := postColor(t, ts.URL, &serve.ColorRequest{
		BaseFingerprint: d1.Fingerprint,
		AddVertices:     1,
		AddEdges:        [][2]int32{{64, 0}},
	}, "rid-d2", "")
	if code != http.StatusOK {
		t.Fatalf("delta 2: %d (%s)", code, kind)
	}
	if d2.Worker != base.Worker {
		t.Fatalf("delta 2 routed to %s, owner is %s", d2.Worker, base.Worker)
	}

	st := coord.Stats()
	if st.DeltaJobs != 2 {
		t.Fatalf("delta_jobs = %d, want 2", st.DeltaJobs)
	}
	if st.DeltaOwnerHits != 2 {
		t.Fatalf("delta_owner_hits = %d, want 2 (both deltas had owner hints)", st.DeltaOwnerHits)
	}
	if st.Scattered != 0 {
		t.Fatalf("scattered = %d, want 0", st.Scattered)
	}
	if st.VersionOwners < 3 {
		t.Fatalf("version_owners = %d, want >= 3", st.VersionOwners)
	}
}

// A worker's unknown_base rejection passes through the coordinator as the
// same typed 404 — it is the client's signal to re-upload, and it must
// never be failed over (no replica holds the version either).
func TestDeltaUnknownBasePassesThrough(t *testing.T) {
	w := newTestWorker(t, serve.Config{})
	coord, ts := newTestCoordinator(t, cluster.Config{}, w)

	_, code, kind := postColor(t, ts.URL, &serve.ColorRequest{
		BaseFingerprint: "00000000deadbeef",
		AddVertices:     1,
	}, "rid-miss", "")
	if code != http.StatusNotFound || kind != "unknown_base" {
		t.Fatalf("got %d (%s), want 404 (unknown_base)", code, kind)
	}
	if st := coord.Stats(); st.RouteFailovers != 0 {
		t.Fatalf("unknown_base was failed over %d times; it must not be", st.RouteFailovers)
	}

	// Malformed fingerprints are a client error, not fleet work.
	_, code, kind = postColor(t, ts.URL, &serve.ColorRequest{
		BaseFingerprint: "not-hex",
	}, "rid-bad", "")
	if code != http.StatusBadRequest {
		t.Fatalf("bad fingerprint: got %d (%s), want 400", code, kind)
	}
}
