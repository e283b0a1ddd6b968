// Host-performance benchmark (-hostperf): measures the PR 3 hot path —
// device memory arena, runner pooling, and fused kernels — and writes
// BENCH_PR3.json. Three host-side request paths run on the same workload:
//
//   - transient: the PR 2 call shape on today's code — a fresh device and
//     a transient gpucolor run per request (cold arena every time);
//   - pooled: a warm single-device serve.Server (the serving hot path);
//   - pooled+fused: the same with the fused assign+flag kernels.
//
// Each section records wall clock, heap allocations, allocated bytes and
// GC pause time per request (runtime.ReadMemStats deltas). The simulated
// side records fused-vs-unfused cycles per seed dataset, which must be
// bit-identical colorings in strictly fewer cycles.
//
// With -budget pointing at BENCH_BUDGET.json, the run fails (exit 1) if
// the pooled path's allocations per request exceed the committed budget —
// the CI regression gate for the zero-allocation hot path. Every run also
// fails if the default mix's median throughput falls below mixFloor times
// the throughput the committed BENCH_PR3.json records.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/serve"
	"gcolor/internal/simt"
)

// pr2Baseline is the same steady-state measurement taken on the PR 2 tree
// (commit "Add gcolord serving layer...", one warm device, NoCache
// requests on rmat:9:8:3): the before side of this PR's before/after.
var pr2Baseline = hostSection{
	Label:          "pr2-serving-path (measured at the PR 2 commit)",
	Requests:       10,
	WallUSPerReq:   21999,
	AllocsPerReq:   180984,
	BytesPerReq:    17232811,
	GCPauseUSTotal: -1, // not recorded at the PR 2 commit
}

// hostperfDatasets are the seed datasets for the fused-vs-unfused cycle
// comparison (the gcload default mix plus the larger rmat the paper
// experiments lean on).
var hostperfDatasets = []string{
	"grid:40:40",
	"gnm:2000:8000:1",
	"rmat:9:8:1",
	"rmat:11:16:1",
}

type hostSection struct {
	Label          string `json:"label"`
	Requests       int    `json:"requests"`
	WallUSPerReq   int64  `json:"wall_us_per_request"`
	AllocsPerReq   int64  `json:"allocs_per_request"`
	BytesPerReq    int64  `json:"bytes_per_request"`
	GCPauseUSTotal int64  `json:"gc_pause_us_total"`
	GCRuns         int64  `json:"gc_runs"`
}

type fusedNumber struct {
	Graph         string  `json:"graph"`
	Algorithm     string  `json:"algorithm"`
	PlainCycles   int64   `json:"plain_cycles"`
	FusedCycles   int64   `json:"fused_cycles"`
	CycleSavings  float64 `json:"cycle_savings_pct"`
	BitIdentical  bool    `json:"bit_identical"`
	FewerLaunches bool    `json:"strictly_fewer_cycles"`
}

type hostperfReport struct {
	Bench            string        `json:"bench"`
	Workload         string        `json:"workload"`
	Fused            []fusedNumber `json:"fused_vs_plain"`
	PR2              hostSection   `json:"pr2_baseline"`
	Transient        hostSection   `json:"transient"`
	Pooled           hostSection   `json:"pooled"`
	PooledFused      hostSection   `json:"pooled_fused"`
	DefaultMix       mixSection    `json:"gcload_default_mix"`
	AllocReduction   float64       `json:"alloc_reduction_vs_pr2"`
	ThroughputGain   float64       `json:"throughput_gain_vs_pr2"`
	BudgetFile       string        `json:"budget_file,omitempty"`
	BudgetAllocs     int64         `json:"budget_allocs_per_request,omitempty"`
	WithinBudget     bool          `json:"within_budget"`
	BudgetHeadroomPC float64       `json:"budget_headroom_pct,omitempty"`
}

// servingMix is gcload's default mix: a regular mesh, a uniform random
// graph, and a scale-free graph, weighted toward repeats so the cache
// and coalescing layers see realistic duplicate traffic. A fraction of
// requests get a rewritten seed so some misses always remain.
var servingMix = []struct {
	spec   string
	weight int
}{
	{"grid:40:40", 4},
	{"gnm:2000:8000:1", 3},
	{"rmat:9:8:1", 3},
}

const servingUniqueEvery = 5 // every 5th request gets a fresh seed (20% unique)

// servingRequests expands the weighted mix into n (spec, graph) pairs.
// Every servingUniqueEvery-th request attempts a seed rewrite, matching
// gcload's reseed semantics: seeded specs (gnm, rmat) become
// never-before-seen graphs, seedless ones (grid) stay duplicates. The
// weights interleave so the unique slots land on both kinds.
func servingRequests(n int) ([]string, map[string]*graph.Graph, error) {
	total := 0
	for _, m := range servingMix {
		total += m.weight
	}
	var ring []string
	for i := 0; len(ring) < total; i++ {
		for _, m := range servingMix {
			if i < m.weight {
				ring = append(ring, m.spec)
			}
		}
	}
	specs := make([]string, 0, n)
	graphs := make(map[string]*graph.Graph)
	unique := 0
	for i := 0; i < n; i++ {
		spec := ring[i%len(ring)]
		if i%servingUniqueEvery == servingUniqueEvery-1 {
			unique++
			switch spec {
			case "gnm:2000:8000:1":
				spec = fmt.Sprintf("gnm:2000:8000:%d", 1000+unique)
			case "rmat:9:8:1":
				spec = fmt.Sprintf("rmat:9:8:%d", 1000+unique)
			}
		}
		if _, ok := graphs[spec]; !ok {
			g, err := serve.ParseGraphSpec(spec)
			if err != nil {
				return nil, nil, fmt.Errorf("mix spec %q: %w", spec, err)
			}
			graphs[spec] = g
		}
		specs = append(specs, spec)
	}
	return specs, graphs, nil
}

// mixSection is the gcload default mix (servingMix) replayed on the pooled
// server, compared against the throughputs the committed BENCH_PR2.json
// and BENCH_PR3.json record for the identical benchmark.
type mixSection struct {
	Requests         int     `json:"requests"`
	Devices          int     `json:"devices"`
	Concurrency      int     `json:"concurrency"`
	Passes           int     `json:"passes"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	PR2ThroughputRPS float64 `json:"pr2_throughput_rps"`
	Gain             float64 `json:"gain_vs_pr2"`
	PR3ThroughputRPS float64 `json:"pr3_throughput_rps"`
	GainVsPR3        float64 `json:"gain_vs_pr3"`
	Floor            float64 `json:"floor_gain_vs_pr3"`
}

// pr2MixThroughputRPS is the pooled-server throughput the PR 2 commit's
// serving benchmark recorded on this exact mix (BENCH_PR2.json,
// serving.throughput_rps: 60 requests, 4 devices, concurrency 8).
const pr2MixThroughputRPS = 172.83

// pr3MixThroughputRPS is the default-mix throughput the committed
// BENCH_PR3.json records (gcload_default_mix.throughput_rps: this mix of
// 60 requests on 4 devices at concurrency 8); -hostperf overwrites that
// file, so the number lives here. mixFloor is the least multiple of it the
// median of mixPasses timed passes must reach.
const (
	pr3MixThroughputRPS = 276.94
	mixFloor            = 1.5
	mixPasses           = 5
)

// defaultMixThroughput replays the pooled workload BENCH_PR2.json records
// (same mix, same server shape) and reports the median wall-clock
// throughput of mixPasses timed passes, after one untimed warm-up pass.
// Each pass runs on a fresh server, as the baseline's single pass did: a
// reused server would answer every repeat of the earlier passes from its
// result cache.
func defaultMixThroughput() (mixSection, error) {
	const n, devices, conc = 60, 4, 8
	specs, graphs, err := servingRequests(n)
	if err != nil {
		return mixSection{}, err
	}
	if _, err := mixPass(specs, graphs, devices, conc); err != nil {
		return mixSection{}, err
	}
	rps := make([]float64, mixPasses)
	for i := range rps {
		if rps[i], err = mixPass(specs, graphs, devices, conc); err != nil {
			return mixSection{}, err
		}
	}
	slices.Sort(rps)
	m := mixSection{
		Requests:         n,
		Devices:          devices,
		Concurrency:      conc,
		Passes:           mixPasses,
		ThroughputRPS:    rps[len(rps)/2],
		PR2ThroughputRPS: pr2MixThroughputRPS,
		PR3ThroughputRPS: pr3MixThroughputRPS,
		Floor:            mixFloor,
	}
	m.Gain = m.ThroughputRPS / m.PR2ThroughputRPS
	m.GainVsPR3 = m.ThroughputRPS / m.PR3ThroughputRPS
	return m, nil
}

// mixPass submits specs to a fresh server from conc clients and returns
// the pass's throughput.
func mixPass(specs []string, graphs map[string]*graph.Graph, devices, conc int) (float64, error) {
	s := serve.NewServer(serve.Config{Devices: devices})
	defer s.Stop()
	work := make(chan string)
	errc := make(chan error, conc)
	start := time.Now()
	for w := 0; w < conc; w++ {
		go func() {
			for spec := range work {
				if _, err := s.Submit(context.Background(), &serve.Request{
					Graph:     graphs[spec],
					Algorithm: gpucolor.AlgHybrid,
				}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for _, spec := range specs {
		work <- spec
	}
	close(work)
	for w := 0; w < conc; w++ {
		if err := <-errc; err != nil {
			return 0, fmt.Errorf("default mix: %w", err)
		}
	}
	return float64(len(specs)) / time.Since(start).Seconds(), nil
}

type allocBudget struct {
	MaxAllocsPerRequest int64 `json:"max_allocs_per_request"`
}

// measureHost runs fn n times after a warmup call and returns the
// per-request host-side costs.
func measureHost(label string, n int, fn func() error) (hostSection, error) {
	if err := fn(); err != nil {
		return hostSection{}, fmt.Errorf("%s warmup: %w", label, err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return hostSection{}, fmt.Errorf("%s request %d: %w", label, i, err)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return hostSection{
		Label:          label,
		Requests:       n,
		WallUSPerReq:   wall.Microseconds() / int64(n),
		AllocsPerReq:   int64(after.Mallocs-before.Mallocs) / int64(n),
		BytesPerReq:    int64(after.TotalAlloc-before.TotalAlloc) / int64(n),
		GCPauseUSTotal: int64(after.PauseTotalNs-before.PauseTotalNs) / 1000,
		GCRuns:         int64(after.NumGC - before.NumGC),
	}, nil
}

// fusedNumbers runs every dataset fused and unfused and checks the fusion
// contract: identical colorings, strictly fewer simulated cycles.
func fusedNumbers() ([]fusedNumber, error) {
	var out []fusedNumber
	for _, spec := range hostperfDatasets {
		g, err := serve.ParseGraphSpec(spec)
		if err != nil {
			return nil, err
		}
		for _, alg := range []gpucolor.Algorithm{gpucolor.AlgBaseline, gpucolor.AlgMaxMin} {
			plain, err := gpucolor.Color(simt.NewDevice(), g, alg, gpucolor.Options{Seed: 1})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", spec, alg, err)
			}
			fused, err := gpucolor.Color(simt.NewDevice(), g, alg, gpucolor.Options{Seed: 1, Fused: true})
			if err != nil {
				return nil, fmt.Errorf("%s/%s fused: %w", spec, alg, err)
			}
			fn := fusedNumber{
				Graph:         spec,
				Algorithm:     alg.String(),
				PlainCycles:   plain.Cycles,
				FusedCycles:   fused.Cycles,
				BitIdentical:  slices.Equal(plain.Colors, fused.Colors),
				FewerLaunches: fused.Cycles < plain.Cycles,
			}
			if plain.Cycles > 0 {
				fn.CycleSavings = 100 * float64(plain.Cycles-fused.Cycles) / float64(plain.Cycles)
			}
			if !fn.BitIdentical || !fn.FewerLaunches {
				return nil, fmt.Errorf("%s/%s: fusion contract violated (identical=%v, fused %d vs plain %d cycles)",
					spec, alg, fn.BitIdentical, fused.Cycles, plain.Cycles)
			}
			out = append(out, fn)
		}
	}
	return out, nil
}

// runHostperfBench executes -hostperf and writes jsonPath; budgetPath, if
// non-empty, is the committed allocation budget to enforce.
func runHostperfBench(jsonPath, budgetPath string, n int) error {
	if n < 1 {
		n = 1
	}
	fused, err := fusedNumbers()
	if err != nil {
		return err
	}

	const workload = "rmat:9:8:3"
	g, err := serve.ParseGraphSpec(workload)
	if err != nil {
		return err
	}

	transient, err := measureHost("transient (fresh device per request)", n, func() error {
		_, err := gpucolor.ColorContext(context.Background(), simt.NewDevice(), g,
			gpucolor.AlgBaseline, gpucolor.ResilientOptions{})
		return err
	})
	if err != nil {
		return err
	}

	serveSection := func(label string, fusedReq bool) (hostSection, error) {
		s := serve.NewServer(serve.Config{Devices: 1})
		defer s.Stop()
		return measureHost(label, n, func() error {
			_, err := s.Submit(context.Background(), &serve.Request{
				Graph: g, NoCache: true, Fused: fusedReq,
			})
			return err
		})
	}
	pooled, err := serveSection("pooled (warm server)", false)
	if err != nil {
		return err
	}
	pooledFused, err := serveSection("pooled+fused (warm server)", true)
	if err != nil {
		return err
	}
	mix, err := defaultMixThroughput()
	if err != nil {
		return err
	}

	rep := hostperfReport{
		Bench:       "hotpath-pr3",
		Workload:    workload,
		Fused:       fused,
		PR2:         pr2Baseline,
		Transient:   transient,
		Pooled:      pooled,
		PooledFused: pooledFused,
		DefaultMix:  mix,
	}
	if pooled.AllocsPerReq > 0 {
		rep.AllocReduction = float64(pr2Baseline.AllocsPerReq) / float64(pooled.AllocsPerReq)
	}
	if pooledFused.WallUSPerReq > 0 {
		rep.ThroughputGain = float64(pr2Baseline.WallUSPerReq) / float64(pooledFused.WallUSPerReq)
	}
	rep.WithinBudget = true
	if budgetPath != "" {
		raw, err := os.ReadFile(budgetPath)
		if err != nil {
			return fmt.Errorf("budget: %w", err)
		}
		var budget allocBudget
		if err := json.Unmarshal(raw, &budget); err != nil {
			return fmt.Errorf("budget %s: %w", budgetPath, err)
		}
		rep.BudgetFile = budgetPath
		rep.BudgetAllocs = budget.MaxAllocsPerRequest
		rep.WithinBudget = pooled.AllocsPerReq <= budget.MaxAllocsPerRequest
		if budget.MaxAllocsPerRequest > 0 {
			rep.BudgetHeadroomPC = 100 * float64(budget.MaxAllocsPerRequest-pooled.AllocsPerReq) /
				float64(budget.MaxAllocsPerRequest)
		}
	}

	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr,
		"gcbench: pooled %d allocs/req (%.0fx below PR2's %d), %dus/req wall (PR2 %dus); fused saves %.1f%% cycles on %s; default mix %.1f rps (%.2fx PR3's %.1f) -> %s\n",
		pooled.AllocsPerReq, rep.AllocReduction, pr2Baseline.AllocsPerReq,
		pooled.WallUSPerReq, pr2Baseline.WallUSPerReq, fused[len(fused)-1].CycleSavings,
		fused[len(fused)-1].Graph, mix.ThroughputRPS, mix.GainVsPR3, pr3MixThroughputRPS, jsonPath)
	if !rep.WithinBudget {
		return fmt.Errorf("allocation budget exceeded: pooled path allocates %d objects per request, budget %d (%s)",
			pooled.AllocsPerReq, rep.BudgetAllocs, budgetPath)
	}
	if mix.GainVsPR3 < mixFloor {
		return fmt.Errorf("default mix %.1f rps is %.2fx the BENCH_PR3.json baseline %.1f, floor %.2fx",
			mix.ThroughputRPS, mix.GainVsPR3, pr3MixThroughputRPS, mixFloor)
	}
	return nil
}
