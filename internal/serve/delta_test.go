package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gen"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
)

// submitResident uploads g as a resident version and returns its
// fingerprint.
func submitResident(t *testing.T, s *Server, g *graph.Graph) uint64 {
	t.Helper()
	res, err := s.Submit(context.Background(), &Request{Graph: g, Resident: true})
	if err != nil {
		t.Fatalf("resident upload: %v", err)
	}
	return res.Fingerprint
}

func TestDeltaIncrementalColoring(t *testing.T) {
	s := NewServer(Config{Devices: 2})
	defer s.Stop()
	g := gen.Grid2D(10, 10)
	baseFp := submitResident(t, s, g)

	d := &graph.Delta{AddVertices: 1, AddEdges: [][2]int32{{0, 99}, {0, 100}, {5, 7}}}
	res, err := s.Submit(context.Background(), &Request{Delta: d, BaseFingerprint: baseFp})
	if err != nil {
		t.Fatalf("delta submit: %v", err)
	}
	if !res.Delta || res.DeltaFallback {
		t.Fatalf("delta=%v fallback=%v, want incremental hit", res.Delta, res.DeltaFallback)
	}
	ng, wantFp, frontier, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != wantFp {
		t.Fatalf("successor fingerprint %016x, want %016x", res.Fingerprint, wantFp)
	}
	if res.FrontierSize != len(frontier) {
		t.Fatalf("frontier size %d, want %d", res.FrontierSize, len(frontier))
	}
	if res.Vertices != ng.NumVertices() || res.Edges != ng.NumEdges() {
		t.Fatalf("successor reported %d/%d, want %d/%d", res.Vertices, res.Edges, ng.NumVertices(), ng.NumEdges())
	}
	if err := color.Verify(ng, res.Colors); err != nil {
		t.Fatalf("delta coloring invalid: %v", err)
	}

	// Chain: a further delta against the successor must work too.
	d2 := &graph.Delta{RemoveEdges: [][2]int32{{0, 1}}}
	res2, err := s.Submit(context.Background(), &Request{Delta: d2, BaseFingerprint: res.Fingerprint})
	if err != nil {
		t.Fatalf("chained delta: %v", err)
	}
	ng2, wantFp2, _, _ := graph.ApplyDelta(ng, d2)
	if res2.Fingerprint != wantFp2 {
		t.Fatalf("chained fingerprint %016x, want %016x", res2.Fingerprint, wantFp2)
	}
	if err := color.Verify(ng2, res2.Colors); err != nil {
		t.Fatalf("chained coloring invalid: %v", err)
	}

	st := s.Stats()
	if st.DeltaRequests != 2 || st.DeltaHits != 2 || st.DeltaFallbacks != 0 {
		t.Fatalf("delta stats requests=%d hits=%d fallbacks=%d, want 2/2/0",
			st.DeltaRequests, st.DeltaHits, st.DeltaFallbacks)
	}
	if st.VersionsResident != 3 {
		t.Fatalf("versions resident %d, want 3 (base + two successors)", st.VersionsResident)
	}
}

func TestDeltaContentIdentitySharesCache(t *testing.T) {
	// A delta-produced version and a from-scratch upload of the same graph
	// must land on the same fingerprint, so the second is a cache hit.
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	g := gen.Grid2D(6, 6)
	baseFp := submitResident(t, s, g)
	d := &graph.Delta{AddEdges: [][2]int32{{0, 35}}}
	res, err := s.Submit(context.Background(), &Request{Delta: d, BaseFingerprint: baseFp})
	if err != nil {
		t.Fatal(err)
	}
	ng, _, _, _ := graph.ApplyDelta(g, d)
	full, err := s.Submit(context.Background(), &Request{Graph: ng})
	if err != nil {
		t.Fatal(err)
	}
	if full.Fingerprint != res.Fingerprint {
		t.Fatalf("fingerprints diverge: %016x vs %016x", full.Fingerprint, res.Fingerprint)
	}
	if !full.Cached {
		t.Fatal("full upload of a delta-produced graph missed the cache")
	}
}

func TestDeltaUnknownBase(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	_, err := s.Submit(context.Background(), &Request{
		Delta:           &graph.Delta{AddVertices: 1},
		BaseFingerprint: 0xabad1dea,
	})
	var ube *UnknownBaseError
	if !errors.As(err, &ube) {
		t.Fatalf("err = %v, want *UnknownBaseError", err)
	}
	if ube.Fingerprint != 0xabad1dea {
		t.Fatalf("error fingerprint %x", ube.Fingerprint)
	}
	if st := s.Stats(); st.DeltaUnknownBase != 1 {
		t.Fatalf("delta_unknown_base_total = %d, want 1", st.DeltaUnknownBase)
	}
}

func TestDeltaBadDelta(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	fp := submitResident(t, s, gen.Grid2D(4, 4))
	_, err := s.Submit(context.Background(), &Request{
		Delta:           &graph.Delta{AddEdges: [][2]int32{{2, 2}}}, // self loop
		BaseFingerprint: fp,
	})
	var bde *BadDeltaError
	if !errors.As(err, &bde) {
		t.Fatalf("err = %v, want *BadDeltaError", err)
	}
}

func TestDeltaFallbackOverBudget(t *testing.T) {
	// FrontierFraction so small the budget is zero: every effective delta
	// falls back to a full recolor of the successor.
	s := NewServer(Config{Devices: 2, Delta: DeltaConfig{FrontierFraction: 1e-9}})
	defer s.Stop()
	g := gen.Grid2D(8, 8)
	baseFp := submitResident(t, s, g)
	d := &graph.Delta{AddEdges: [][2]int32{{0, 63}}}
	res, err := s.Submit(context.Background(), &Request{Delta: d, BaseFingerprint: baseFp})
	if err != nil {
		t.Fatalf("delta submit: %v", err)
	}
	if !res.Delta || !res.DeltaFallback {
		t.Fatalf("delta=%v fallback=%v, want fallback", res.Delta, res.DeltaFallback)
	}
	ng, wantFp, _, _ := graph.ApplyDelta(g, d)
	if res.Fingerprint != wantFp {
		t.Fatalf("fallback fingerprint %016x, want %016x", res.Fingerprint, wantFp)
	}
	if err := color.Verify(ng, res.Colors); err != nil {
		t.Fatalf("fallback coloring invalid: %v", err)
	}
	st := s.Stats()
	if st.DeltaFallbacks != 1 || st.DeltaHits != 0 {
		t.Fatalf("fallbacks=%d hits=%d, want 1/0", st.DeltaFallbacks, st.DeltaHits)
	}
	// The fallback still pins the successor: the next delta chains off it.
	if _, err := s.Submit(context.Background(), &Request{
		Delta:           &graph.Delta{RemoveEdges: [][2]int32{{0, 63}}},
		BaseFingerprint: res.Fingerprint,
	}); err != nil {
		t.Fatalf("delta against fallback-pinned version: %v", err)
	}
}

// TestCacheHitAliasingRegression is the regression test for the
// shallow-copy bug: a caller mutating the Colors slice of a cache (or
// idempotency) hit used to corrupt the cached entry, poisoning every
// later hit. Before the fix the third response observed the mutation.
func TestCacheHitAliasingRegression(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	g := smallGraph()
	req := func() *Request { return &Request{Graph: g, Algorithm: gpucolor.AlgBaseline} }
	first, err := s.Submit(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first.Colors)

	hit, err := s.Submit(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second request was not a cache hit")
	}
	// The caller trashes its copy — as real callers legitimately may.
	for i := range hit.Colors {
		hit.Colors[i] = -99
	}

	again, err := s.Submit(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("third request was not a cache hit")
	}
	if !slices.Equal(again.Colors, want) {
		t.Fatal("cache entry was corrupted by mutating a previous hit's Colors")
	}
	if err := color.Verify(g, again.Colors); err != nil {
		t.Fatalf("post-mutation cache hit coloring invalid: %v", err)
	}
}

func TestIdemHitAliasingRegression(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	g := smallGraph()
	req := func() *Request {
		return &Request{Graph: g, IdemKey: "alias-key", NoCache: true}
	}
	first, err := s.Submit(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first.Colors)
	// Mutating even the *first* response must be safe: its Colors must not
	// alias the stored idempotent result.
	for i := range first.Colors {
		first.Colors[i] = -1
	}
	hit, err := s.Submit(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.IdempotentReplay {
		t.Fatal("retry with same Idempotency-Key was not replayed")
	}
	for i := range hit.Colors {
		hit.Colors[i] = -7
	}
	again, err := s.Submit(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.Colors, want) {
		t.Fatal("idempotency entry was corrupted by mutating a previous hit's Colors")
	}
}

// TestDrainServesReplaysAndHits is the regression test for the drain
// ordering bug: the draining check used to run before the idempotency and
// cache lookups, so a rolling restart turned every replayable retry into
// a spurious 503. Hits never touch a device and must be served through
// drain; only work that needs the queue is refused.
func TestDrainServesReplaysAndHits(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	g := smallGraph()
	if _, err := s.Submit(context.Background(), &Request{Graph: g, IdemKey: "drain-idem"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Idempotent replay through drain.
	res, err := s.Submit(context.Background(), &Request{Graph: g, IdemKey: "drain-idem"})
	if err != nil {
		t.Fatalf("idem replay during drain refused: %v", err)
	}
	if !res.IdempotentReplay {
		t.Fatal("idem replay during drain was not a replay")
	}
	// Cache hit through drain (no idempotency key this time).
	res, err = s.Submit(context.Background(), &Request{Graph: g})
	if err != nil {
		t.Fatalf("cache hit during drain refused: %v", err)
	}
	if !res.Cached {
		t.Fatal("cache hit during drain was not served from cache")
	}
	// New work is still refused.
	if _, err := s.Submit(context.Background(), &Request{Graph: gen.Grid2D(3, 3)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("fresh work during drain: err = %v, want ErrDraining", err)
	}
	// NoCache requests must execute, so they are refused even on a cached
	// graph.
	if _, err := s.Submit(context.Background(), &Request{Graph: g, NoCache: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("NoCache during drain: err = %v, want ErrDraining", err)
	}
}

// TestDeltaPropertyRandomStreams drives random mutation streams through
// the incremental engine and checks the two delta invariants: every
// response is a conflict-free coloring of the true successor graph, and
// the incremental palette stays within 1.3x of a from-scratch recolor of
// the same graph.
func TestDeltaPropertyRandomStreams(t *testing.T) {
	s := NewServer(Config{Devices: 2, Delta: DeltaConfig{FrontierFraction: 1, Entries: 8}})
	defer s.Stop()
	scratch := NewServer(Config{Devices: 2})
	defer scratch.Stop()

	rng := rand.New(rand.NewSource(7))
	for stream := 0; stream < 3; stream++ {
		n := 120 + rng.Intn(80)
		edgeSet := map[[2]int32]bool{}
		var edges [][2]int32
		for u := 0; u < n; u++ {
			for k := 0; k < 4; k++ {
				v := rng.Intn(n)
				if v == u {
					continue
				}
				e := [2]int32{int32(min(u, v)), int32(max(u, v))}
				if !edgeSet[e] {
					edgeSet[e] = true
					edges = append(edges, e)
				}
			}
		}
		g := graph.FromEdges(n, edges)
		fp := submitResident(t, s, g)

		for step := 0; step < 12; step++ {
			d := &graph.Delta{}
			// Mutate ~1-2% of the edges per step.
			for i := 0; i < 1+len(edges)/64; i++ {
				if rng.Intn(2) == 0 && len(edges) > 0 {
					d.RemoveEdges = append(d.RemoveEdges, edges[rng.Intn(len(edges))])
				} else {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v {
						continue
					}
					d.AddEdges = append(d.AddEdges, [2]int32{int32(u), int32(v)})
				}
			}
			ng, wantFp, _, err := graph.ApplyDelta(g, d)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Submit(context.Background(), &Request{Delta: d, BaseFingerprint: fp})
			if err != nil {
				t.Fatalf("stream %d step %d: %v", stream, step, err)
			}
			if res.Fingerprint != wantFp {
				t.Fatalf("stream %d step %d: fingerprint diverged", stream, step)
			}
			if err := color.Verify(ng, res.Colors); err != nil {
				t.Fatalf("stream %d step %d: conflict in delta coloring: %v", stream, step, err)
			}
			// From-scratch comparison on an isolated server (no shared
			// cache): the incremental palette must stay within 1.3x.
			ref, err := scratch.Submit(context.Background(), &Request{Graph: ng, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if limit := float64(ref.NumColors) * 1.3; float64(res.NumColors) > limit {
				t.Fatalf("stream %d step %d: delta used %d colors, from-scratch %d (>1.3x)",
					stream, step, res.NumColors, ref.NumColors)
			}
			g, fp = ng, res.Fingerprint
			edges = upperEdges(g, edges)
		}
	}
}

// TestJournalReplayRebuildsVersionChain colors through a journaled
// server — resident base plus two chained deltas — then restarts onto the
// same journal and checks the version chain was reconstructed: a fresh
// mutation against the final version must be served incrementally, and a
// crash-interrupted delta accept must replay to completion.
func TestJournalReplayRebuildsVersionChain(t *testing.T) {
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 2, Journal: j1, Recovery: rec1})
	ts1 := httptest.NewServer(Handler(s1))

	resp, body := postColorHeaders(t, ts1, ColorRequest{Gen: "grid:6:6", Resident: true}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resident upload: %d: %s", resp.StatusCode, body)
	}
	var base ColorResponse
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}

	resp, body = postColorHeaders(t, ts1, ColorRequest{
		BaseFingerprint: base.Fingerprint,
		AddEdges:        [][2]int32{{0, 35}},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta 1: %d: %s", resp.StatusCode, body)
	}
	var d1 ColorResponse
	if err := json.Unmarshal(body, &d1); err != nil {
		t.Fatal(err)
	}
	if !d1.Delta || d1.DeltaFallback {
		t.Fatalf("delta 1 not incremental: %+v", d1)
	}

	resp, body = postColorHeaders(t, ts1, ColorRequest{
		BaseFingerprint: d1.Fingerprint,
		AddVertices:     1,
		AddEdges:        [][2]int32{{36, 0}},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta 2: %d: %s", resp.StatusCode, body)
	}
	var d2 ColorResponse
	if err := json.Unmarshal(body, &d2); err != nil {
		t.Fatal(err)
	}

	ts1.Close()
	s1.Stop()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate a crash-interrupted delta: an accept with no completion.
	// Replay must re-run it through the rebuilt version store.
	jx, _ := openTestJournal(t, dir)
	wire, _ := json.Marshal(ColorRequest{
		BaseFingerprint: d2.Fingerprint,
		RemoveEdges:     [][2]int32{{0, 1}},
	})
	if err := jx.AppendAccept(journal.AcceptRecord{
		ID: "crash-delta", Resident: true, Wire: wire,
		AcceptedUnixMS: time.Now().UnixMilli(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := jx.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := openTestJournal(t, dir)
	if len(rec2.Settled) < 3 {
		t.Fatalf("recovered %d settled versions, want >= 3", len(rec2.Settled))
	}
	s2 := NewServer(Config{Devices: 2, Journal: j2, Recovery: rec2})
	defer func() { s2.Stop(); j2.Close() }()
	if got := s2.RecoveryInfo().WarmedVersions; got < 3 {
		t.Fatalf("warmed %d versions, want >= 3", got)
	}
	<-s2.RecoveryDone()
	if got := s2.reg.Counter("replay_completed_total").Value(); got != 1 {
		t.Fatalf("crash-interrupted delta replay: completed %d, want 1", got)
	}

	// The chain is live again: a brand-new mutation against the final
	// pre-crash version is served incrementally, not with unknown_base.
	ts2 := httptest.NewServer(Handler(s2))
	defer ts2.Close()
	resp, body = postColorHeaders(t, ts2, ColorRequest{
		BaseFingerprint: d2.Fingerprint,
		AddEdges:        [][2]int32{{1, 36}},
		IncludeColors:   true,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart delta: %d: %s", resp.StatusCode, body)
	}
	var after ColorResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if !after.Delta {
		t.Fatalf("post-restart delta not served by the incremental engine: %+v", after)
	}
	if after.BaseFingerprint != d2.Fingerprint {
		t.Fatalf("base fingerprint echo %q, want %q", after.BaseFingerprint, d2.Fingerprint)
	}
}

func TestDeltaHTTPUnknownBaseIs404(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	resp, body := postColorHeaders(t, ts, ColorRequest{
		BaseFingerprint: "00000000deadbeef",
		AddVertices:     1,
	}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "unknown_base" {
		t.Fatalf("kind %q, want unknown_base", e.Kind)
	}
}

func TestDeltaHTTPRejectsGraphAndBase(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	resp, body := postColorHeaders(t, ts, ColorRequest{
		Gen:             "grid:3:3",
		BaseFingerprint: "0000000000000001",
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
}

func TestDeltaBinaryWireFrame(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	g := gen.Grid2D(7, 7)
	resp, body := postBinaryCSR(t, ts, graph.EncodeWireCSR(g), "resident=true", ContentTypeBinaryCSR)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary resident upload: %d: %s", resp.StatusCode, body)
	}
	var base ColorResponse
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}
	baseFp, err := ParseFingerprint(base.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}

	d := &graph.Delta{AddEdges: [][2]int32{{0, 48}}, RemoveEdges: [][2]int32{{0, 1}}}
	frame := graph.EncodeWireDelta(baseFp, d)
	resp, body = postBinaryCSR(t, ts, frame, "include_colors=true", ContentTypeBinaryCSR)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary delta: %d: %s", resp.StatusCode, body)
	}
	var out ColorResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Delta {
		t.Fatalf("binary delta not served incrementally: %+v", out)
	}
	ng, wantFp, _, _ := graph.ApplyDelta(g, d)
	if out.Fingerprint != graph.FingerprintString(wantFp) {
		t.Fatalf("fingerprint %s, want %s", out.Fingerprint, graph.FingerprintString(wantFp))
	}
	if err := color.Verify(ng, out.Colors); err != nil {
		t.Fatalf("binary delta coloring invalid: %v", err)
	}
	if out.Vertices != ng.NumVertices() || out.Edges != ng.NumEdges() {
		t.Fatalf("size %d/%d, want %d/%d", out.Vertices, out.Edges, ng.NumVertices(), ng.NumEdges())
	}
}

// TestCompactionSnapshotRebuildsVersions pins a chain of resident versions,
// compacts the journal — the snapshot is the only record of them, since
// nothing here journals the uploads — and reopens it: every version must
// come back with its graph (content fingerprint and CSR) and coloring, in
// the same recency order.
func TestCompactionSnapshotRebuildsVersions(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 2, Journal: j1, Recovery: rec1})
	fp := submitResident(t, s1, gen.RMAT(8, 8, gen.Graph500, 3))
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 5; step++ {
		base, _ := s1.versions.get(fp)
		n := int32(base.g.NumVertices())
		d := &graph.Delta{AddVertices: step % 2}
		for i := 0; i < 4; i++ {
			if u, v := rng.Int31n(n), rng.Int31n(n); u != v {
				d.AddEdges = append(d.AddEdges, [2]int32{u, v})
			}
			u := rng.Int31n(n)
			if nb := base.g.Neighbors(u); len(nb) > 0 {
				d.RemoveEdges = append(d.RemoveEdges, [2]int32{u, nb[0]})
			}
		}
		res, err := s1.Submit(ctx, &Request{Delta: d, BaseFingerprint: fp})
		if err != nil {
			t.Fatalf("delta %d: %v", step, err)
		}
		fp = res.Fingerprint
	}
	want := s1.versions.export()
	if len(want) != 6 {
		t.Fatalf("%d resident versions, want 6", len(want))
	}
	if err := j1.Compact(); err != nil {
		t.Fatal(err)
	}
	s1.Stop()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot writes the chain as its oldest version's full graph
	// followed by the five deltas.
	jc, recc, err := journal.Open(copyJournalDir(t, dir), journal.Options{Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	jc.Close()
	deltas := 0
	for _, sv := range recc.Settled {
		var cr ColorRequest
		if err := json.Unmarshal(sv.Accept.Wire, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.BaseFingerprint != "" {
			deltas++
		}
	}
	if deltas != len(want)-1 {
		t.Fatalf("snapshot wrote %d of %d versions as deltas, want %d", deltas, len(want), len(want)-1)
	}

	j2, rec2 := openTestJournal(t, dir)
	if !rec2.Stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded on reopen")
	}
	s2 := NewServer(Config{Devices: 2, Journal: j2, Recovery: rec2})
	defer func() { s2.Stop(); j2.Close() }()
	if got := s2.RecoveryInfo().WarmedVersions; got != int64(len(want)) {
		t.Fatalf("warmed %d versions, want %d", got, len(want))
	}
	got := s2.versions.export()
	if len(got) != len(want) {
		t.Fatalf("%d versions after replay, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.fp != w.fp {
			t.Fatalf("version %d: fingerprint %016x, want %016x (recency order lost)", i, g.fp, w.fp)
		}
		if fp := g.g.Fingerprint(); fp != w.fp {
			t.Fatalf("version %d: replayed graph fingerprint %016x, want %016x", i, fp, w.fp)
		}
		if !slices.Equal(g.g.Offsets(), w.g.Offsets()) || !slices.Equal(g.g.Adj(), w.g.Adj()) {
			t.Fatalf("version %d: replayed CSR differs", i)
		}
		if !slices.Equal(g.colors, w.colors) {
			t.Fatalf("version %d: replayed colors differ", i)
		}
	}
}

// TestVersionRefreshRacesCompaction re-pins one graph with repeated
// resident uploads while the journal compacts in a loop. Refreshing a
// version must replace its store entry, never write the entry a snapshot
// is reading; run under -race, the detector checks it.
func TestVersionRefreshRacesCompaction(t *testing.T) {
	j, rec := openTestJournal(t, t.TempDir())
	s := NewServer(Config{Devices: 2, Journal: j, Recovery: rec})
	defer func() { s.Stop(); j.Close() }()
	g := gen.Grid2D(12, 12)
	submitResident(t, s, g)

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			if err := j.Compact(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("compact: %v", err)
			}
			if n := s.versions.len(); n != 1 {
				t.Fatalf("%d resident versions, want 1", n)
			}
			return
		default:
			submitResident(t, s, g)
		}
	}
}

// TestVersionWarmStartDependencyOrder journals a resident upload, a delta
// on it, then a no_cache resident re-upload of the base, whose pair
// settles after the delta's. A restart must rebuild both versions — the
// delta once its base is back, not in one pass of settlement order — so a
// delta against the successor is served incrementally.
func TestVersionWarmStartDependencyOrder(t *testing.T) {
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 2, Journal: j1, Recovery: rec1})
	ts1 := httptest.NewServer(Handler(s1))
	post := func(ts *httptest.Server, cr ColorRequest) ColorResponse {
		t.Helper()
		resp, body := postColorHeaders(t, ts, cr, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: %d: %s", cr, resp.StatusCode, body)
		}
		var out ColorResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := post(ts1, ColorRequest{Gen: "grid:6:6", Resident: true})
	d1 := post(ts1, ColorRequest{BaseFingerprint: base.Fingerprint, AddEdges: [][2]int32{{0, 35}}})
	if again := post(ts1, ColorRequest{Gen: "grid:6:6", Resident: true, NoCache: true}); again.Fingerprint != base.Fingerprint {
		t.Fatalf("re-upload fingerprint %s, want %s", again.Fingerprint, base.Fingerprint)
	}
	ts1.Close()
	s1.Stop()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := openTestJournal(t, dir)
	if len(rec2.Settled) != 2 || rec2.Settled[0].Complete.Fingerprint == rec2.Settled[1].Complete.Fingerprint {
		t.Fatalf("recovered %d settled versions, want the delta's and the base's", len(rec2.Settled))
	}
	if got := graph.FingerprintString(rec2.Settled[0].Complete.Fingerprint); got != d1.Fingerprint {
		t.Fatalf("first settled version %s, want the delta %s (its base settles after it)", got, d1.Fingerprint)
	}
	s2 := NewServer(Config{Devices: 2, Journal: j2, Recovery: rec2})
	defer func() { s2.Stop(); j2.Close() }()
	if got := s2.RecoveryInfo().WarmedVersions; got != 2 {
		t.Fatalf("warmed %d versions, want 2", got)
	}
	ts2 := httptest.NewServer(Handler(s2))
	defer ts2.Close()
	after := post(ts2, ColorRequest{BaseFingerprint: d1.Fingerprint, AddEdges: [][2]int32{{1, 34}}})
	if !after.Delta || after.BaseFingerprint != d1.Fingerprint {
		t.Fatalf("delta on the rebuilt successor not served incrementally: %+v", after)
	}
}

// editScript draws a small delta on g: a few added and removed edges, and
// one appended vertex when grow is set.
func editScript(rng *rand.Rand, g *graph.Graph, grow bool) *graph.Delta {
	n := int32(g.NumVertices())
	d := &graph.Delta{}
	if grow {
		d.AddVertices = 1
		d.AddEdges = append(d.AddEdges, [2]int32{n, rng.Int31n(n)})
	}
	for i := 0; i < 4; i++ {
		if u, v := rng.Int31n(n), rng.Int31n(n); u != v {
			d.AddEdges = append(d.AddEdges, [2]int32{u, v})
		}
		u := rng.Int31n(n)
		if nb := g.Neighbors(u); len(nb) > 0 {
			d.RemoveEdges = append(d.RemoveEdges, [2]int32{u, nb[0]})
		}
	}
	return d
}

// versionModel is a test's own record of how each resident version was
// made, kept beside the server's store.
type versionModel struct {
	t     *testing.T
	s     *Server
	base  map[uint64]uint64 // successor -> base; absent for an upload
	delta map[uint64]*graph.Delta
}

func newVersionModel(t *testing.T, s *Server) *versionModel {
	return &versionModel{t: t, s: s, base: map[uint64]uint64{}, delta: map[uint64]*graph.Delta{}}
}

func (m *versionModel) upload(g *graph.Graph) uint64 {
	fp := submitResident(m.t, m.s, g)
	delete(m.base, fp)
	delete(m.delta, fp)
	return fp
}

// apply submits d on base, then scribbles on d's edit lists: the store
// must have copied them, as a caller may reuse its Delta once Submit
// returns.
func (m *versionModel) apply(base uint64, d *graph.Delta) uint64 {
	m.t.Helper()
	sent := &graph.Delta{AddVertices: d.AddVertices, AddEdges: slices.Clone(d.AddEdges), RemoveEdges: slices.Clone(d.RemoveEdges)}
	res, err := m.s.Submit(context.Background(), &Request{Delta: d, BaseFingerprint: base})
	if err != nil {
		m.t.Fatalf("delta on %016x: %v", base, err)
	}
	for _, edits := range [][][2]int32{d.AddEdges, d.RemoveEdges} {
		for i := range edits {
			edits[i] = [2]int32{0, 1}
		}
	}
	m.base[res.Fingerprint], m.delta[res.Fingerprint] = base, sent
	return res.Fingerprint
}

// wantDeltaForm reports which versions, in the store's least recently
// used first order, a snapshot should write as edit scripts: exactly those
// made by a delta from another version that comes earlier in that order.
func (m *versionModel) wantDeltaForm(order []*versionEntry) map[uint64]bool {
	want := make(map[uint64]bool, len(order))
	seen := make(map[uint64]bool, len(order))
	for _, v := range order {
		b, ok := m.base[v.fp]
		want[v.fp] = ok && b != v.fp && seen[b]
		seen[v.fp] = true
	}
	return want
}

// copyJournalDir copies a closed journal directory, so it can be opened
// once to inspect its records and once to restart a server.
func copyJournalDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkSnapshotForms reads a compacted journal's version records and
// checks each one's wire form against want: a delta form names the base
// and edit lists the model recorded; a full form is byte for byte the
// json.Marshal form of the version's CSR frame. It returns the number of
// delta-form and full-graph records.
func (m *versionModel) checkSnapshotForms(rec *journal.Recovery, order []*versionEntry, want map[uint64]bool) (deltas, fulls int) {
	m.t.Helper()
	byFp := make(map[uint64]*versionEntry, len(order))
	for _, v := range order {
		byFp[v.fp] = v
	}
	if len(rec.Settled) != len(order) {
		m.t.Fatalf("snapshot holds %d versions, want %d", len(rec.Settled), len(order))
	}
	for i, sv := range rec.Settled {
		fp := sv.Complete.Fingerprint
		if fp != order[i].fp || sv.Accept.ID != versionRecordID(fp) {
			m.t.Fatalf("record %d is %s for %016x, want %016x (least recently used first)", i, sv.Accept.ID, fp, order[i].fp)
		}
		var cr ColorRequest
		if err := json.Unmarshal(sv.Accept.Wire, &cr); err != nil {
			m.t.Fatalf("record %d: wire: %v", i, err)
		}
		if cr.BaseFingerprint != "" {
			deltas++
			if !want[fp] {
				m.t.Fatalf("record %d (%016x) written as a delta, want the full graph", i, fp)
			}
			d := m.delta[fp]
			if cr.BaseFingerprint != graph.FingerprintString(m.base[fp]) || cr.AddVertices != d.AddVertices ||
				!slices.Equal(cr.AddEdges, d.AddEdges) || !slices.Equal(cr.RemoveEdges, d.RemoveEdges) || !cr.Resident {
				m.t.Fatalf("record %d (%016x): delta form %+v, want base %016x and %+v", i, fp, cr, m.base[fp], d)
			}
			continue
		}
		fulls++
		if want[fp] {
			m.t.Fatalf("record %d (%016x) written as a full graph, want a delta", i, fp)
		}
		marshalled, err := json.Marshal(&ColorRequest{
			GraphCSRB64: base64.StdEncoding.EncodeToString(graph.EncodeWireCSR(byFp[fp].g)),
			NoCache:     true,
			Resident:    true,
		})
		if err != nil {
			m.t.Fatal(err)
		}
		if !bytes.Equal(sv.Accept.Wire, marshalled) {
			m.t.Fatalf("record %d (%016x): full-graph wire is not the json.Marshal form", i, fp)
		}
	}
	return deltas, fulls
}

// checkRebuilt checks that every exported version came back with an equal
// fingerprint, CSR and coloring.
func checkRebuilt(t *testing.T, want, got []*versionEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d versions after replay, want %d", len(got), len(want))
	}
	byFp := make(map[uint64]*versionEntry, len(got))
	for _, g := range got {
		byFp[g.fp] = g
	}
	for _, w := range want {
		g, ok := byFp[w.fp]
		if !ok {
			t.Fatalf("version %016x not rebuilt", w.fp)
		}
		if fp := g.g.Fingerprint(); fp != w.fp {
			t.Fatalf("version %016x: rebuilt graph fingerprint %016x", w.fp, fp)
		}
		if !slices.Equal(g.g.Offsets(), w.g.Offsets()) || !slices.Equal(g.g.Adj(), w.g.Adj()) {
			t.Fatalf("version %016x: rebuilt CSR differs", w.fp)
		}
		if !slices.Equal(g.colors, w.colors) {
			t.Fatalf("version %016x: rebuilt colors differ", w.fp)
		}
	}
}

// TestVersionSnapshotWritesEditScripts builds a chain of deltas, a fork
// off an earlier version, an empty-delta re-pin, a fork off the upload
// (which leaves the chain's first delta older than its base), a delta
// answered from the cache and one over the frontier budget, compacts, and
// checks the snapshot: delta accepts for exactly the versions whose base
// precedes them, byte-identical full-graph accepts for the rest. A restart
// from the snapshot rebuilds every version.
func TestVersionSnapshotWritesEditScripts(t *testing.T) {
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 2, Journal: j1, Recovery: rec1})
	m := newVersionModel(t, s1)
	rng := rand.New(rand.NewSource(9))
	graphOf := func(fp uint64) *graph.Graph {
		v, ok := s1.versions.get(fp)
		if !ok {
			t.Fatalf("version %016x not resident", fp)
		}
		return v.g
	}

	chain := []uint64{m.upload(gen.RMAT(8, 8, gen.Graph500, 5))}
	for step := 1; step <= 8; step++ {
		prev := chain[len(chain)-1]
		chain = append(chain, m.apply(prev, editScript(rng, graphOf(prev), step%3 == 0)))
	}
	m.apply(chain[2], editScript(rng, graphOf(chain[2]), false)) // fork off an earlier version
	if fp := m.apply(chain[5], &graph.Delta{}); fp != chain[5] { // empty-delta re-pin
		t.Fatalf("empty delta moved %016x to %016x", chain[5], fp)
	}
	m.apply(chain[0], editScript(rng, graphOf(chain[0]), true)) // fork off the upload

	// Upload a graph first, then reach it by a delta: the delta is a cache
	// hit, and the re-pinned version records the delta that made it.
	head := chain[len(chain)-1]
	d := editScript(rng, graphOf(head), false)
	ng, _, _, err := graph.ApplyDelta(graphOf(head), d)
	if err != nil {
		t.Fatal(err)
	}
	cached := m.upload(ng)
	hits := s1.reg.Counter("delta_hits").Value()
	if fp := m.apply(head, d); fp != cached || s1.reg.Counter("delta_hits").Value() != hits {
		t.Fatalf("delta to an uploaded graph: %016x, frontier recolors %d -> %d; want a cache hit on %016x",
			fp, hits, s1.reg.Counter("delta_hits").Value(), cached)
	}
	// Recolored from scratch: more edits than the frontier budget allows.
	big := &graph.Delta{}
	for _, e := range [][2]int32{{0, 1}, {2, 3}} {
		for k := int32(0); k < 40; k++ {
			big.AddEdges = append(big.AddEdges, [2]int32{e[0] + 4*k, e[1] + 4*k})
		}
	}
	m.apply(cached, big)
	if got := s1.reg.Counter("delta_fallbacks_total").Value(); got != 1 {
		t.Fatalf("%d delta fallbacks, want 1", got)
	}

	order := s1.versions.export()
	want := m.wantDeltaForm(order)
	if err := j1.Compact(); err != nil {
		t.Fatal(err)
	}
	s1.Stop()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	jc, recc, err := journal.Open(copyJournalDir(t, dir), journal.Options{Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	deltas, fulls := m.checkSnapshotForms(recc, order, want)
	jc.Close()
	if deltas != 8 || fulls != 5 {
		t.Fatalf("snapshot wrote %d delta and %d full-graph versions, want 8 and 5", deltas, fulls)
	}

	j2, rec2 := openTestJournal(t, dir)
	s2 := NewServer(Config{Devices: 2, Journal: j2, Recovery: rec2})
	defer func() { s2.Stop(); j2.Close() }()
	if got := s2.RecoveryInfo().WarmedVersions; got != int64(len(order)) {
		t.Fatalf("warmed %d versions, want %d", got, len(order))
	}
	checkRebuilt(t, order, s2.versions.export())
}

// TestVersionSnapshotTwoChains fills the store with two interleaved
// delta chains, so each chain's oldest resident version has lost its base
// to eviction: the snapshot writes those two as full graphs and every
// other version as a delta, and two compactions in a row (the second from
// the rebuilt store, which remembers how each version was made) write the
// same records.
func TestVersionSnapshotTwoChains(t *testing.T) {
	const capacity = 16
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 2, Journal: j1, Recovery: rec1, Delta: DeltaConfig{Entries: capacity}})
	m := newVersionModel(t, s1)
	rng := rand.New(rand.NewSource(11))
	var heads [2]uint64
	var graphs [2]*graph.Graph
	for c := range heads {
		graphs[c] = gen.RMAT(7, 8, gen.Graph500, int64(c+1))
		heads[c] = m.upload(graphs[c])
	}
	for step := 0; step < capacity; step++ {
		for c := range heads {
			d := editScript(rng, graphs[c], step%5 == 4)
			ng, _, _, err := graph.ApplyDelta(graphs[c], d)
			if err != nil {
				t.Fatal(err)
			}
			heads[c], graphs[c] = m.apply(heads[c], d), ng
		}
	}
	order := s1.versions.export()
	if len(order) != capacity {
		t.Fatalf("%d resident versions, want %d", len(order), capacity)
	}
	want := m.wantDeltaForm(order)
	if err := j1.Compact(); err != nil {
		t.Fatal(err)
	}
	s1.Stop()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		jc, recc, err := journal.Open(copyJournalDir(t, dir), journal.Options{Fsync: journal.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		deltas, fulls := m.checkSnapshotForms(recc, order, want)
		jc.Close()
		if fulls != 2 || deltas != capacity-2 {
			t.Fatalf("round %d: snapshot wrote %d full-graph and %d delta versions, want 2 and %d", round, fulls, deltas, capacity-2)
		}

		j2, rec2 := openTestJournal(t, dir)
		s2 := NewServer(Config{Devices: 2, Journal: j2, Recovery: rec2, Delta: DeltaConfig{Entries: capacity}})
		if got := s2.RecoveryInfo().WarmedVersions; got != capacity {
			t.Fatalf("round %d: warmed %d versions, want %d", round, got, capacity)
		}
		checkRebuilt(t, order, s2.versions.export())
		order = s2.versions.export()
		want = m.wantDeltaForm(order)
		err = j2.Compact()
		s2.Stop()
		if cerr := j2.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkCompactVersions times one journal compaction of a store holding
// 64 resident rmat:12:16 versions on two delta chains, the shape of the
// serving benchmark's delta workload, and reports the snapshot's size.
func BenchmarkCompactVersions(b *testing.B) {
	dir := b.TempDir()
	j, rec, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	s := NewServer(Config{Devices: 4, Journal: j, Recovery: rec})
	defer func() { s.Stop(); j.Close() }()
	rng := rand.New(rand.NewSource(1))
	var heads [2]uint64
	var graphs [2]*graph.Graph
	for c := range heads {
		g := gen.RMAT(12, 16, gen.Graph500, int64(c+1))
		res, err := s.Submit(context.Background(), &Request{Graph: g, Resident: true})
		if err != nil {
			b.Fatal(err)
		}
		heads[c], graphs[c] = res.Fingerprint, g
	}
	for s.versions.len() < 64 {
		for c := range heads {
			d := editScript(rng, graphs[c], false)
			res, err := s.Submit(context.Background(), &Request{Delta: d, BaseFingerprint: heads[c]})
			if err != nil {
				b.Fatal(err)
			}
			graphs[c], _, _, _ = graph.ApplyDelta(graphs[c], d)
			heads[c] = res.Fingerprint
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		b.Fatalf("%d snapshots after compaction, want 1", len(snaps))
	}
	st, err := os.Stat(snaps[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size())/(1<<20), "snapshot-MB")
}

// startJournaled starts one generation of a journaled server on dir
// behind an HTTP test server; stop closes all three, in order.
func startJournaled(t *testing.T, dir string) (s *Server, ts *httptest.Server, stop func()) {
	t.Helper()
	j, rec := openTestJournal(t, dir)
	s = NewServer(Config{Devices: 2, Journal: j, Recovery: rec})
	ts = httptest.NewServer(Handler(s))
	return s, ts, func() {
		ts.Close()
		s.Stop()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// postReply posts cr and returns the decoded reply (zero unless 200), the
// status and the error kind.
func postReply(t *testing.T, ts *httptest.Server, cr ColorRequest) (ColorResponse, int, string) {
	t.Helper()
	resp, body := postColorHeaders(t, ts, cr, nil)
	var out ColorResponse
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.Unmarshal(body, &e)
		return out, resp.StatusCode, e.Kind
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode, ""
}

func mustPost(t *testing.T, ts *httptest.Server, cr ColorRequest) ColorResponse {
	t.Helper()
	out, code, kind := postReply(t, ts, cr)
	if code != http.StatusOK {
		t.Fatalf("%+v: http %d %s", cr, code, kind)
	}
	return out
}

// TestVersionNoOpDeltaSurvivesRestart: a delta that changes nothing names
// its own version as its base, so its settled pair alone cannot rebuild
// that version, and it is the newest pair for the fingerprint. The
// upload's pair must still rebuild it after a restart.
func TestVersionNoOpDeltaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1, stop1 := startJournaled(t, dir)
	v0 := mustPost(t, ts1, ColorRequest{Gen: "grid:6:6", Resident: true, NoCache: true})
	if noop := mustPost(t, ts1, ColorRequest{BaseFingerprint: v0.Fingerprint}); !noop.Delta || noop.Fingerprint != v0.Fingerprint {
		t.Fatalf("no-op delta: %+v, want a delta answer for %s", noop, v0.Fingerprint)
	}
	stop1()

	s2, ts2, stop2 := startJournaled(t, dir)
	defer stop2()
	if got := s2.RecoveryInfo().WarmedVersions; got != 1 {
		t.Fatalf("warmed %d versions, want 1", got)
	}
	after, code, kind := postReply(t, ts2, ColorRequest{BaseFingerprint: v0.Fingerprint, AddEdges: [][2]int32{{0, 35}}})
	if code != http.StatusOK || !after.Delta {
		t.Fatalf("delta on the restarted version: http %d %s %+v", code, kind, after)
	}
}

// TestVersionUndoChainSurvivesRestart: v0 -> v1 (add an edge) -> v0
// (remove it). The undo's pair is v0's newest and names v1 as its base,
// whose own pair names v0, so the newest pairs alone form a cycle. Both
// versions must rebuild after a restart, v0 from its upload.
func TestVersionUndoChainSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1, stop1 := startJournaled(t, dir)
	v0 := mustPost(t, ts1, ColorRequest{Gen: "grid:6:6", Resident: true, NoCache: true})
	v1 := mustPost(t, ts1, ColorRequest{BaseFingerprint: v0.Fingerprint, AddEdges: [][2]int32{{0, 35}}})
	undo := mustPost(t, ts1, ColorRequest{BaseFingerprint: v1.Fingerprint, RemoveEdges: [][2]int32{{0, 35}}})
	if undo.Fingerprint != v0.Fingerprint || undo.Cached {
		t.Fatalf("undo: %+v, want a journaled answer for %s", undo, v0.Fingerprint)
	}
	stop1()

	s2, ts2, stop2 := startJournaled(t, dir)
	defer stop2()
	if got := s2.RecoveryInfo().WarmedVersions; got != 2 {
		t.Fatalf("warmed %d versions, want 2", got)
	}
	for _, v := range []ColorResponse{v0, v1} {
		after, code, kind := postReply(t, ts2, ColorRequest{BaseFingerprint: v.Fingerprint, AddEdges: [][2]int32{{1, 34}}})
		if code != http.StatusOK || !after.Delta {
			t.Fatalf("delta on restarted version %s: http %d %s %+v", v.Fingerprint, code, kind, after)
		}
	}
}

// TestDeltaWarmStartRejectsImproperColoring: the incremental path proves
// a step only where it changed, which is a full proof only over a proper
// base. A journal record is CRC-checked, not checked against its graph, so
// a resident completion whose coloring is improper must not be rebuilt
// into the store, and a delta on it must be told to re-upload, never
// answered from it. The result cache, warmed from the same record, proves
// the entry on the re-upload's hit and drops it, so the re-upload runs and
// pins a proper version, which the delta then extends.
func TestDeltaWarmStartRejectsImproperColoring(t *testing.T) {
	dir := t.TempDir()
	up := ColorRequest{Gen: "grid:6:6", Resident: true}
	wire, err := json.Marshal(&up)
	if err != nil {
		t.Fatal(err)
	}
	req, g, err := buildRequest(&up, newSpecCache(1))
	if err != nil {
		t.Fatal(err)
	}
	fp := g.Fingerprint()
	key := keyOf(req, fp, 1)
	now := time.Now().UnixMilli()
	j, _ := openTestJournal(t, dir)
	if err := j.AppendAccept(journal.AcceptRecord{ID: "improper", Fingerprint: fp, PolicyKey: key.policy,
		AcceptedUnixMS: now, Resident: true, Wire: wire}); err != nil {
		t.Fatal(err)
	}
	// Every vertex color 0: every edge of the grid is monochromatic.
	if err := j.AppendComplete(journal.CompleteRecord{ID: "improper", Fingerprint: fp, PolicyKey: key.policy,
		Disposition: journal.DispOK, NumColors: 1, ColorsB64: journal.EncodeColors(make([]int32, g.NumVertices())),
		CompletedUnixMS: now}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts, stop := startJournaled(t, dir)
	defer stop()
	if info := s.RecoveryInfo(); info.WarmedVersions != 0 || info.WarmedCache != 1 {
		t.Fatalf("warmed %d versions and %d cache entries, want 0 and 1", info.WarmedVersions, info.WarmedCache)
	}
	d := &graph.Delta{AddEdges: [][2]int32{{0, 35}}}
	delta := ColorRequest{BaseFingerprint: graph.FingerprintString(fp), AddEdges: d.AddEdges, IncludeColors: true}
	if out, code, kind := postReply(t, ts, delta); code != http.StatusNotFound || kind != "unknown_base" {
		t.Fatalf("delta on an improperly colored version: http %d %s %+v, want 404 unknown_base", code, kind, out)
	}
	if again := mustPost(t, ts, up); again.Cached {
		t.Fatalf("re-upload answered from the improper warmed cache entry: %+v", again)
	}
	out, code, kind := postReply(t, ts, delta)
	if code != http.StatusOK {
		t.Fatalf("delta after the re-upload: http %d %s", code, kind)
	}
	ng, _, _, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := color.Verify(ng, out.Colors); err != nil {
		t.Fatalf("delta after the re-upload answered an improper coloring: %v", err)
	}
}

// TestDeltaVerifyChangedMatchesVerify: over a proper base, the local
// proof agrees with the full Verify on every recolored successor of
// random deltas, and rejects, with Verify's own error, a coloring broken
// at one vertex inside the frontier, outside it, or left uncolored.
func TestDeltaVerifyChangedMatchesVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	graphs := []*graph.Graph{gen.GNM(300, 1200, 1), gen.RMAT(9, 8, gen.Graph500, 2), gen.Grid2D(12, 12), gen.BarabasiAlbert(400, 3, 3)}
	var sc color.Scratch
	for gi, g := range graphs {
		base := color.Greedy(g, color.Natural, 0)
		for step := 0; step < 40; step++ {
			d := editScript(rng, g, step%5 == 0)
			ng, _, frontier, err := graph.ApplyDelta(g, d)
			if err != nil {
				t.Fatal(err)
			}
			colors := slices.Grow(slices.Clone(base), ng.NumVertices()-len(base))
			for len(colors) < ng.NumVertices() {
				colors = append(colors, color.Uncolored)
			}
			color.RecolorFrontier(ng, colors, frontier, &sc)
			if local, full := color.VerifyChanged(ng, colors, base, frontier), color.Verify(ng, colors); local != nil || full != nil {
				t.Fatalf("graph %d step %d: recolored successor: local %v, full %v, want both nil", gi, step, local, full)
			}
			inFrontier := make(map[int32]bool, len(frontier))
			for _, v := range frontier {
				inFrontier[v] = true
			}
			pick := func(inside bool) int32 {
				for tries := 0; tries < 1000; tries++ {
					v := rng.Int31n(int32(ng.NumVertices()))
					if inFrontier[v] == inside && ng.Degree(v) > 0 {
						return v
					}
				}
				return -1
			}
			for _, inside := range []bool{true, false} {
				v := pick(inside)
				if v < 0 {
					continue
				}
				broken := slices.Clone(colors)
				nb := ng.Neighbors(v)
				broken[v] = broken[nb[rng.Intn(len(nb))]]
				checkBrokenAgrees(t, ng, broken, base, frontier)
			}
			broken := slices.Clone(colors)
			broken[rng.Intn(len(broken))] = color.Uncolored
			checkBrokenAgrees(t, ng, broken, base, frontier)
		}
	}

	// Violations where no color moved, which the diff alone cannot see: an
	// added edge whose endpoints keep one base color (the frontier check
	// finds it), and an appended vertex left uncolored, with a frontier
	// holding only the added edges' endpoints, here none (the check of
	// every vertex past the base finds it).
	path := gen.Path(4)
	base := []int32{0, 1, 0, 1}
	for _, d := range []*graph.Delta{{AddEdges: [][2]int32{{0, 2}}}, {AddVertices: 1}} {
		ng, _, _, err := graph.ApplyDelta(path, d)
		if err != nil {
			t.Fatal(err)
		}
		var added []int32
		for _, e := range d.AddEdges {
			added = append(added, e[0], e[1])
		}
		colors := slices.Clone(base)
		for len(colors) < ng.NumVertices() {
			colors = append(colors, color.Uncolored)
		}
		checkBrokenAgrees(t, ng, colors, base, added)
	}

	// The precondition is real: a conflict already in the base, away from
	// the frontier, goes unseen. Warm start's full Verify keeps such a base
	// out of the store.
	g := gen.Path(6)
	base = []int32{0, 0, 1, 0, 1, 0} // edge 0-1 monochromatic
	d := &graph.Delta{AddEdges: [][2]int32{{3, 5}}}
	ng, _, frontier, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	colors := slices.Clone(base)
	color.RecolorFrontier(ng, colors, frontier, &sc)
	if color.VerifyChanged(ng, colors, base, frontier) != nil || color.Verify(ng, colors) == nil {
		t.Fatal("an improper base outside the frontier should pass the local proof and fail the full one")
	}
}

// checkBrokenAgrees asserts that the local proof rejects a broken coloring
// exactly as Verify does.
func checkBrokenAgrees(t *testing.T, g *graph.Graph, colors, base, frontier []int32) {
	t.Helper()
	full := color.Verify(g, colors)
	if full == nil {
		t.Fatal("test bug: the broken coloring verifies")
	}
	local := color.VerifyChanged(g, colors, base, frontier)
	if local == nil || local.Error() != full.Error() {
		t.Fatalf("local proof %v, want Verify's %v", local, full)
	}
}

// BenchmarkVerifyDeltaStep compares the delta path's local proof with a
// full Verify of the successor, on rmat:12:16 and a 32-edit delta (16
// removals, 16 additions — the shape of the serving benchmark's steps).
func BenchmarkVerifyDeltaStep(b *testing.B) {
	g := gen.RMAT(12, 16, gen.Graph500, 1)
	base := color.Greedy(g, color.Natural, 0)
	rng := rand.New(rand.NewSource(1))
	n := int32(g.NumVertices())
	d := &graph.Delta{}
	for len(d.RemoveEdges) < 16 {
		if u := rng.Int31n(n); g.Degree(u) > 0 {
			d.RemoveEdges = append(d.RemoveEdges, [2]int32{u, g.Neighbors(u)[0]})
		}
	}
	for len(d.AddEdges) < 16 {
		if u, v := rng.Int31n(n), rng.Int31n(n); u != v && !g.HasEdge(u, v) {
			d.AddEdges = append(d.AddEdges, [2]int32{u, v})
		}
	}
	ng, _, frontier, err := graph.ApplyDelta(g, d)
	if err != nil {
		b.Fatal(err)
	}
	colors := slices.Clone(base)
	color.RecolorFrontier(ng, colors, frontier, new(color.Scratch))
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := color.VerifyChanged(ng, colors, base, frontier); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := color.Verify(ng, colors); err != nil {
				b.Fatal(err)
			}
		}
	})
}
