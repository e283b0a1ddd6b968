package serve

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"gcolor/internal/gen"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
)

// maxServeAllocsPerRequest is the steady-state allocation budget of one
// served request (device execution included, cache bypassed). Before the
// arena/runner work a request cost ~78k allocations; the pooled hot path
// measures ~500. The bound is deliberately loose so scheduler jitter
// cannot flake it while still catching any order-of-magnitude regression.
const maxServeAllocsPerRequest = 5000

// TestServedResultsMatchTransient: responses produced by the pooled
// serving path are bit-identical (colors, cycles) to a direct transient
// gpucolor run with the same options, across algorithms and the fused
// flag, interleaved on one device so every job inherits a dirty runner.
func TestServedResultsMatchTransient(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()

	jobs := []struct {
		g     *graph.Graph
		alg   gpucolor.Algorithm
		fused bool
	}{
		{gen.GNM(300, 1500, 4), gpucolor.AlgBaseline, false},
		{gen.Grid2D(12, 11), gpucolor.AlgMaxMin, true},
		{gen.RMAT(8, 8, gen.Graph500, 3), gpucolor.AlgHybrid, false},
		{gen.Star(200), gpucolor.AlgJP, false},
		{gen.GNM(300, 1500, 4), gpucolor.AlgBaseline, true},
		{gen.BarabasiAlbert(400, 3, 2), gpucolor.AlgSpeculative, false},
	}
	for i, job := range jobs {
		res, err := s.Submit(context.Background(), &Request{
			Graph: job.g, Algorithm: job.alg, Fused: job.fused, NoCache: true,
		})
		if err != nil {
			t.Fatalf("job %d: Submit: %v", i, err)
		}
		want, err := gpucolor.Color(DeviceConfig{}.build(), job.g, job.alg,
			gpucolor.Options{Fused: job.fused})
		if err != nil {
			t.Fatalf("job %d: transient: %v", i, err)
		}
		if !slices.Equal(res.Colors, want.Colors) {
			t.Errorf("job %d (%v fused=%v): served colors differ from transient", i, job.alg, job.fused)
		}
		if res.Cycles != want.Cycles {
			t.Errorf("job %d (%v fused=%v): served cycles %d, transient %d",
				i, job.alg, job.fused, res.Cycles, want.Cycles)
		}
	}
}

// TestFusedSharesCacheWithUnfused: Fused is excluded from the policy key —
// fused and unfused runs color identically, so a fused request must hit
// the cache entry a plain request populated.
func TestFusedSharesCacheWithUnfused(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	g := gen.Grid2D(8, 8)
	if _, err := s.Submit(context.Background(), &Request{Graph: g}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Submit(context.Background(), &Request{Graph: g, Fused: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("fused request missed the cache entry of its unfused twin")
	}
}

// TestSteadyStateServeAllocs is the hot-path regression gate: once the
// server is warm, a served request (queue, lease, pooled coloring, scrub)
// must stay within maxServeAllocsPerRequest heap allocations.
func TestSteadyStateServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budget only holds without it")
	}
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	g := gen.RMAT(9, 8, gen.Graph500, 3)
	req := func() *Request { return &Request{Graph: g, NoCache: true} }

	// Warm every pool: device arena, runner buffers, launch scratch.
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), req()); err != nil {
			t.Fatal(err)
		}
	}

	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Submit(context.Background(), req()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perReq := (after.Mallocs - before.Mallocs) / runs
	t.Logf("steady-state serve allocations: %d per request", perReq)
	if perReq > maxServeAllocsPerRequest {
		t.Fatalf("steady-state served request allocates %d objects, budget %d",
			perReq, maxServeAllocsPerRequest)
	}
}

// TestArenaStatsExposed: the pool aggregates device arena counters (the
// /metricsz evidence), and a warm server allocates no new device buffers —
// the runner holds them across jobs, so Allocs stays flat.
func TestArenaStatsExposed(t *testing.T) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	g := gen.Grid2D(10, 10)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), &Request{Graph: g, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	warm := s.Pool().ArenaStats()
	if warm.Allocs == 0 {
		t.Fatal("arena stats show no allocations after serving")
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), &Request{Graph: g, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Pool().ArenaStats(); st.Allocs != warm.Allocs {
		t.Fatalf("warm serving allocated new device buffers: %d -> %d", warm.Allocs, st.Allocs)
	}
}

// BenchmarkServeSteadyState measures the full served-request hot path on a
// warm single-device server.
func BenchmarkServeSteadyState(b *testing.B) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	g := gen.RMAT(9, 8, gen.Graph500, 3)
	if _, err := s.Submit(context.Background(), &Request{Graph: g, NoCache: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(context.Background(), &Request{Graph: g, NoCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSteadyStateFused is BenchmarkServeSteadyState with the
// fused kernels.
func BenchmarkServeSteadyStateFused(b *testing.B) {
	s := NewServer(Config{Devices: 1})
	defer s.Stop()
	g := gen.RMAT(9, 8, gen.Graph500, 3)
	if _, err := s.Submit(context.Background(), &Request{Graph: g, NoCache: true, Fused: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(context.Background(), &Request{Graph: g, NoCache: true, Fused: true}); err != nil {
			b.Fatal(err)
		}
	}
}
