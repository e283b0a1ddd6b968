// Batched-dispatch benchmark (-batch): measures the PR 8 small-graph fast
// path — block-diagonal kernel batching plus the binary CSR wire format —
// and writes BENCH_PR8.json. Four sections:
//
//   - identical: a forced batch of heterogeneous small graphs, each
//     member's coloring compared bit-for-bit against a solo run on a
//     batch-disabled twin server (the correctness contract of
//     gpucolor.PrioritySegments result splitting);
//   - poison: cross-tenant leakage probe — a chromatic-number-12 member
//     is fused with 2-colorable members, and any palette bleed between
//     blocks shows up as extra distinct colors or a failed verify;
//   - throughput: the gcload default mix (same shape as -hostperf:
//     60 requests, 4 devices, concurrency 8) batch-on vs batch-off,
//     gated against the committed BENCH_PR3 baseline;
//   - ingest: steady-state allocations of one binary CSR upload and of
//     the JSON/edge-list upload of the same graph through the real HTTP
//     handler, each capped at 64 per request.
//
// The run exits non-zero if any coloring differs, any leak is detected,
// the default-mix gain vs the PR 3 baseline falls below -batch-floor, or
// either ingest path exceeds its allocation cap.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/serve"
)

// pr3MixThroughputRPS is the pooled-server default-mix throughput the
// PR 3 commit's `gcbench -hostperf` recorded (BENCH_PR3.json,
// gcload_default_mix.throughput_rps: 60 requests, 4 devices, conc 8).
const pr3MixThroughputRPS = 276.94

// batchMembers are the graphs fused into the forced batch of the
// identical/poison sections: the default-mix shapes plus deliberately
// clashing structures (a K12 needing 12 colors next to 2-colorable
// stars) so palette bleed between blocks cannot hide.
var batchMembers = []string{
	"grid:40:40",
	"gnm:2000:8000:1",
	"rmat:9:8:1",
	"star:200",
	"complete:12",
	"star:100",
	"grid:20:20",
}

type memberResult struct {
	Graph        string `json:"graph"`
	Seed         uint32 `json:"seed"`
	Batched      bool   `json:"batched"`
	BatchSize    int    `json:"batch_size"`
	NumColors    int    `json:"num_colors"`
	SoloColors   int    `json:"solo_num_colors"`
	BitIdentical bool   `json:"bit_identical"`
	Valid        bool   `json:"valid"`
}

type batchThroughput struct {
	Requests         int     `json:"requests"`
	Devices          int     `json:"devices"`
	Concurrency      int     `json:"concurrency"`
	BatchOffRPS      float64 `json:"batch_off_rps"`
	BatchOnRPS       float64 `json:"batch_on_rps"`
	GainVsOff        float64 `json:"gain_vs_off"`
	PR3ThroughputRPS float64 `json:"pr3_throughput_rps"`
	GainVsPR3        float64 `json:"gain_vs_pr3"`
	Batches          int64   `json:"batches"`
	BatchedJobs      int64   `json:"batched_jobs"`
	MeanBatchSize    float64 `json:"mean_batch_size"`
}

type ingestSection struct {
	Graph        string `json:"graph"`
	JSONAllocs   uint64 `json:"json_allocs_per_request"`
	BinaryAllocs uint64 `json:"binary_allocs_per_request"`
}

type batchReport struct {
	Bench       string          `json:"bench"`
	Members     []memberResult  `json:"identical"`
	PoisonLeaks int             `json:"poison_leaks"`
	Throughput  batchThroughput `json:"default_mix"`
	Ingest      ingestSection   `json:"binary_ingest"`
	Floor       float64         `json:"floor_gain_vs_pr3"`
	IngestCap   uint64          `json:"ingest_allocs_cap"`
	BudgetFile  string          `json:"budget_file,omitempty"`
	Passed      bool            `json:"passed"`
}

// soloResults colors every member on a batch-disabled server: the ground
// truth the batched colorings must match bit-for-bit.
func soloResults(graphs []*graph.Graph) ([]*serve.Response, error) {
	s := serve.NewServer(serve.Config{
		Devices: 1, Workers: 1,
		Batch: serve.BatchConfig{Disabled: true},
	})
	defer s.Stop()
	out := make([]*serve.Response, len(graphs))
	for i, g := range graphs {
		res, err := s.Submit(context.Background(), &serve.Request{
			Graph: g, Seed: uint32(i*7 + 1), NoCache: true,
		})
		if err != nil {
			return nil, fmt.Errorf("solo member %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// batchedResults forces every member into one fused launch: a long job
// pins the single worker while the members queue behind it, so the next
// dequeue gathers them all.
func batchedResults(graphs []*graph.Graph) ([]*serve.Response, error) {
	s := serve.NewServer(serve.Config{Devices: 1, Workers: 1})
	defer s.Stop()
	blocker, err := serve.ParseGraphSpec("rmat:12:16:99")
	if err != nil {
		return nil, err
	}
	blockDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), &serve.Request{Graph: blocker, NoCache: true})
		blockDone <- err
	}()
	// Let the blocker reach the device before the members enqueue.
	time.Sleep(100 * time.Millisecond)

	out := make([]*serve.Response, len(graphs))
	errs := make([]error, len(graphs))
	var wg sync.WaitGroup
	for i, g := range graphs {
		wg.Add(1)
		go func(i int, g *graph.Graph) {
			defer wg.Done()
			out[i], errs[i] = s.Submit(context.Background(), &serve.Request{
				Graph: g, Seed: uint32(i*7 + 1), NoCache: true,
			})
		}(i, g)
	}
	wg.Wait()
	if err := <-blockDone; err != nil {
		return nil, fmt.Errorf("blocker: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("batched member %d: %w", i, err)
		}
	}
	return out, nil
}

// mixThroughput replays the -hostperf default mix on a 4-device server
// with the given batch config and reports throughput plus batch counters.
func mixThroughput(batch serve.BatchConfig, n, conc int) (float64, serve.Stats, error) {
	const devices = 4
	specs, graphs, err := servingRequests(n)
	if err != nil {
		return 0, serve.Stats{}, err
	}
	s := serve.NewServer(serve.Config{Devices: devices, Batch: batch})
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
			return 0, serve.Stats{}, fmt.Errorf("default mix: %w", err)
		}
	}
	rps := float64(n) / time.Since(start).Seconds()
	return rps, s.Stats(), nil
}

// measureIngest replays one cached request per wire format through the
// real HTTP handler and reports steady-state allocations per request.
func measureIngest() (ingestSection, error) {
	const spec = "gnm:2000:8000:1"
	s := serve.NewServer(serve.Config{Devices: 1})
	defer s.Stop()
	h := serve.Handler(s)
	g, err := serve.ParseGraphSpec(spec)
	if err != nil {
		return ingestSection{}, err
	}
	frame := graph.EncodeWireCSR(g)
	var el bytes.Buffer
	if err := graph.WriteEdgeList(&el, g); err != nil {
		return ingestSection{}, err
	}
	jsonBody, err := json.Marshal(&serve.ColorRequest{Graph: el.String()})
	if err != nil {
		return ingestSection{}, err
	}

	do := func(body []byte, contentType string) error {
		req := httptest.NewRequest(http.MethodPost, "/color", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			return fmt.Errorf("ingest request: status %d: %s", rw.Code, rw.Body.String())
		}
		return nil
	}
	// Warm both paths and the result cache so the measured runs isolate
	// ingest (body read, decode, request build, response encode).
	if err := do(jsonBody, "application/json"); err != nil {
		return ingestSection{}, err
	}
	if err := do(frame, serve.ContentTypeBinaryCSR); err != nil {
		return ingestSection{}, err
	}
	const runs = 16
	measure := func(body []byte, contentType string) (uint64, error) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := do(body, contentType); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, nil
	}
	sec := ingestSection{Graph: spec}
	if sec.JSONAllocs, err = measure(jsonBody, "application/json"); err != nil {
		return ingestSection{}, err
	}
	if sec.BinaryAllocs, err = measure(frame, serve.ContentTypeBinaryCSR); err != nil {
		return ingestSection{}, err
	}
	return sec, nil
}

// runBatchBench executes -batch and writes jsonPath; floor is the minimum
// default-mix throughput gain over the PR 3 baseline. A non-empty
// budgetPath reads BENCH_BUDGET.json and sets the per-path ingest
// allocation cap to its max_ingest_allocs_per_request entry.
func runBatchBench(jsonPath, budgetPath string, floor float64) error {
	ingestCap := uint64(64)
	var budgetFile string
	if budgetPath != "" {
		raw, err := os.ReadFile(budgetPath)
		if err != nil {
			return fmt.Errorf("budget: %w", err)
		}
		var budget allocBudget
		if err := json.Unmarshal(raw, &budget); err != nil {
			return fmt.Errorf("budget %s: %w", budgetPath, err)
		}
		if budget.MaxIngestAllocs > 0 {
			ingestCap = budget.MaxIngestAllocs
		}
		budgetFile = budgetPath
	}
	graphs := make([]*graph.Graph, len(batchMembers))
	for i, spec := range batchMembers {
		g, err := serve.ParseGraphSpec(spec)
		if err != nil {
			return fmt.Errorf("member %q: %w", spec, err)
		}
		graphs[i] = g
	}

	solo, err := soloResults(graphs)
	if err != nil {
		return err
	}
	batched, err := batchedResults(graphs)
	if err != nil {
		return err
	}

	rep := batchReport{
		Bench: "batch-pr8", Floor: floor,
		IngestCap: ingestCap, BudgetFile: budgetFile, Passed: true,
	}
	for i := range graphs {
		m := memberResult{
			Graph: batchMembers[i], Seed: uint32(i*7 + 1),
			Batched: batched[i].Batched, BatchSize: batched[i].BatchSize,
			NumColors: batched[i].NumColors, SoloColors: solo[i].NumColors,
			BitIdentical: slices.Equal(batched[i].Colors, solo[i].Colors),
			Valid:        color.Verify(graphs[i], batched[i].Colors) == nil,
		}
		if !m.Batched || !m.BitIdentical || !m.Valid {
			rep.Passed = false
		}
		// Poison probe: a leak from the K12 block into a 2-colorable
		// neighbor (or vice versa) changes the member's distinct-color
		// count or breaks its verify.
		if m.NumColors != m.SoloColors || !m.Valid {
			rep.PoisonLeaks++
		}
		rep.Members = append(rep.Members, m)
	}

	// The default mix at saturating concurrency: 4 devices, 32 clients.
	// Queue depth is what batching converts into fused launches, so the
	// benchmark drives the overload regime; the batch-off twin runs the
	// identical shape (device-bound, so its throughput matches the conc-8
	// number BENCH_PR3 recorded).
	const mixN, mixConc = 240, 32
	offRPS, _, err := mixThroughput(serve.BatchConfig{Disabled: true}, mixN, mixConc)
	if err != nil {
		return err
	}
	onRPS, onStats, err := mixThroughput(serve.BatchConfig{}, mixN, mixConc)
	if err != nil {
		return err
	}
	tp := batchThroughput{
		Requests: mixN, Devices: 4, Concurrency: mixConc,
		BatchOffRPS: offRPS, BatchOnRPS: onRPS,
		PR3ThroughputRPS: pr3MixThroughputRPS,
		Batches:          onStats.Batches, BatchedJobs: onStats.BatchedJobs,
	}
	if offRPS > 0 {
		tp.GainVsOff = onRPS / offRPS
	}
	tp.GainVsPR3 = onRPS / pr3MixThroughputRPS
	if tp.Batches > 0 {
		tp.MeanBatchSize = float64(tp.BatchedJobs) / float64(tp.Batches)
	}
	rep.Throughput = tp
	if tp.GainVsPR3 < floor {
		rep.Passed = false
	}

	if rep.Ingest, err = measureIngest(); err != nil {
		return err
	}
	if rep.Ingest.JSONAllocs > ingestCap || rep.Ingest.BinaryAllocs > ingestCap {
		rep.Passed = false
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
		"gcbench: batch %.1f rps on vs %.1f off (%.2fx, %.2fx vs PR3's %.1f); %d batches of mean %.1f; ingest allocs binary %d, json %d (cap %d) -> %s\n",
		onRPS, offRPS, tp.GainVsOff, tp.GainVsPR3, pr3MixThroughputRPS,
		tp.Batches, tp.MeanBatchSize, rep.Ingest.BinaryAllocs, rep.Ingest.JSONAllocs,
		ingestCap, jsonPath)
	if !rep.Passed {
		return fmt.Errorf("batch gates failed: see %s (floor %.2fx vs PR3, leaks %d, ingest allocs binary %d json %d, cap %d)",
			jsonPath, floor, rep.PoisonLeaks, rep.Ingest.BinaryAllocs, rep.Ingest.JSONAllocs, ingestCap)
	}
	return nil
}
