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
// the CI regression gate for the zero-allocation hot path.
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

// mixSection is the gcload default mix (the -serving workload) replayed
// on the pooled server, compared against the throughput the PR 2 tree
// recorded for the identical benchmark in its committed BENCH_PR2.json.
type mixSection struct {
	Requests         int     `json:"requests"`
	Devices          int     `json:"devices"`
	Concurrency      int     `json:"concurrency"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	PR2ThroughputRPS float64 `json:"pr2_throughput_rps"`
	Gain             float64 `json:"gain_vs_pr2"`
}

// pr2MixThroughputRPS is the pooled-server throughput the PR 2 commit's
// `gcbench -serving` recorded on this exact mix (BENCH_PR2.json,
// serving.throughput_rps: 60 requests, 4 devices, concurrency 8).
const pr2MixThroughputRPS = 172.83

// defaultMixThroughput replays the -serving pooled workload (same mix,
// same server shape) and reports wall-clock throughput.
func defaultMixThroughput() (mixSection, error) {
	const n, devices, conc = 60, 4, 8
	specs, graphs, err := servingRequests(n)
	if err != nil {
		return mixSection{}, err
	}
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
			return mixSection{}, fmt.Errorf("default mix: %w", err)
		}
	}
	m := mixSection{
		Requests:         n,
		Devices:          devices,
		Concurrency:      conc,
		ThroughputRPS:    float64(n) / time.Since(start).Seconds(),
		PR2ThroughputRPS: pr2MixThroughputRPS,
	}
	m.Gain = m.ThroughputRPS / m.PR2ThroughputRPS
	return m, nil
}

type allocBudget struct {
	MaxAllocsPerRequest int64 `json:"max_allocs_per_request"`
	// MaxIngestAllocs caps the allocations of one cached upload on each
	// wire format, binary CSR and JSON edge list, enforced by -batch (0 =
	// use the default cap).
	MaxIngestAllocs uint64 `json:"max_ingest_allocs_per_request"`
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
		s := serve.NewServer(serve.Config{Devices: 1, Workers: 1})
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
		"gcbench: pooled %d allocs/req (%.0fx below PR2's %d), %dus/req wall (PR2 %dus); fused saves %.1f%% cycles on %s -> %s\n",
		pooled.AllocsPerReq, rep.AllocReduction, pr2Baseline.AllocsPerReq,
		pooled.WallUSPerReq, pr2Baseline.WallUSPerReq, fused[len(fused)-1].CycleSavings,
		fused[len(fused)-1].Graph, jsonPath)
	if !rep.WithinBudget {
		return fmt.Errorf("allocation budget exceeded: pooled path allocates %d objects per request, budget %d (%s)",
			pooled.AllocsPerReq, rep.BudgetAllocs, budgetPath)
	}
	return nil
}
