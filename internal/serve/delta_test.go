package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
			edges = edges[:0]
			for v := int32(0); int(v) < g.NumVertices(); v++ {
				for _, u := range g.Neighbors(v) {
					if u > v {
						edges = append(edges, [2]int32{v, u})
					}
				}
			}
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
