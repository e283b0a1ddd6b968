package cluster_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/color"
	"gcolor/internal/serve"
)

// newSimWorkers starts n workers of one device with one simulation worker
// each, so every worker holds the same share of the host.
func newSimWorkers(t *testing.T, n int) []*testWorker {
	t.Helper()
	ws := make([]*testWorker, n)
	for i := range ws {
		ws[i] = newTestWorker(t, serve.Config{Devices: 1, Device: serve.DeviceConfig{Workers: 1}})
	}
	return ws
}

// A scattered reply carries its shards' evidence: the attempts each
// shard's worker made and the slowest shard's exec time, as a server's
// sharded answer does.
func TestScatterReplyCarriesShardEvidence(t *testing.T) {
	w1 := newTestWorker(t, serve.Config{})
	w2 := newTestWorker(t, serve.Config{})
	_, ts := newTestCoordinator(t, cluster.Config{}, w1, w2)

	cr := &serve.ColorRequest{Gen: "grid:16:16", Alg: "baseline", Shards: 2, NoCache: true}
	got, code, kind := postColor(t, ts.URL, cr, "ev-1", "")
	if got == nil || !got.Scattered {
		t.Fatalf("scatter failed: resp=%+v code=%d kind=%s", got, code, kind)
	}
	if got.Attempts < got.Shards {
		t.Errorf("attempts = %d for %d shards, want at least one per shard", got.Attempts, got.Shards)
	}
	if got.ExecUS <= 0 {
		t.Errorf("exec_us = %d, want the slowest shard's exec time", got.ExecUS)
	}
	if got.Recovery != "none" {
		t.Errorf("recovery = %q on a fault-free fleet, want none", got.Recovery)
	}
}

// Scatter-gather is the fleet's scale-out: rmat:12:16:1 split three ways
// across three workers answers at least 2x faster than the same job routed
// whole to one of them, with a proper merged coloring of at most 1.3x the
// whole run's colors.
func TestScatterBeatsOneWorker(t *testing.T) {
	const spec = "rmat:12:16:1"
	g, err := serve.ParseGraphSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestCoordinator(t, cluster.Config{}, newSimWorkers(t, 3)...)

	run := func(shards int) (*serve.ColorResponse, time.Duration) {
		t.Helper()
		cr := &serve.ColorRequest{Gen: spec, Alg: "hybrid", Seed: 1, Shards: shards, NoCache: true, IncludeColors: true}
		t0 := time.Now()
		got, code, kind := postColor(t, ts.URL, cr, fmt.Sprintf("k%d", shards), "")
		if got == nil {
			t.Fatalf("shards %d: %d %s", shards, code, kind)
		}
		if err := color.Verify(g, got.Colors); err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		return got, time.Since(t0)
	}
	whole, wholeDur := run(1)
	scat, scatDur := run(3)
	if whole.Scattered || !scat.Scattered || scat.Shards != 3 {
		t.Fatalf("whole scattered=%v; pinned job scattered=%v shards=%d, want 3", whole.Scattered, scat.Scattered, scat.Shards)
	}
	speedup := wholeDur.Seconds() / scatDur.Seconds()
	t.Logf("one worker %v, three-way scatter %v: %.2fx; colors %d/%d",
		wholeDur, scatDur, speedup, scat.NumColors, whole.NumColors)
	if scat.NumColors*10 > whole.NumColors*13 {
		t.Errorf("scatter used %d colors vs %d whole (ratio %.2f > 1.3)",
			scat.NumColors, whole.NumColors, float64(scat.NumColors)/float64(whole.NumColors))
	}
	if speedup < 2 {
		t.Errorf("scatter speedup %.2fx over one worker, gate 2x", speedup)
	}
}

// Kill drill: a mixed load of routed and auto-scattered jobs keeps 4 in
// flight while the routed graph's owner is hard-killed after 3 have
// finished, and the coordinator fails over every job, losing none.
func TestScatterKillDrillLosesNoJob(t *testing.T) {
	const (
		jobs     = 9
		inFlight = 4
		killAt   = 3
		routed   = "rmat:10:8:1"
	)
	ws := newSimWorkers(t, 3)
	coord, ts := newTestCoordinator(t, cluster.Config{}, ws...)

	// Every routed job shares one graph, so all of them rendezvous onto
	// one owner: kill that one, so the drill takes the failover path.
	probe, code, kind := postColor(t, ts.URL, &serve.ColorRequest{Gen: routed, Alg: "hybrid", Seed: 99, NoCache: true}, "probe", "")
	if probe == nil {
		t.Fatalf("probe: %d %s", code, kind)
	}
	var victim *testWorker
	for _, w := range ws {
		if w.ts.URL == probe.Worker {
			victim = w
		}
	}
	if victim == nil {
		t.Fatalf("probe answered by %q, not a fleet worker", probe.Worker)
	}

	var (
		done, scattered atomic.Int64
		kill            sync.Once
		wg              sync.WaitGroup
	)
	sem := make(chan struct{}, inFlight)
	for i := 0; i < jobs; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			cr := &serve.ColorRequest{Gen: routed, Alg: "hybrid", Seed: uint32(100 + i), NoCache: true}
			if i%3 == 0 {
				cr.Gen = "rmat:13:16:1" // at the auto-scatter threshold
			}
			got, err := coord.Submit(context.Background(), cr, fmt.Sprintf("drill-%d", i), "", nil)
			if err != nil {
				t.Errorf("job %d (%s) lost: %v", i, cr.Gen, err)
			} else if g, err := serve.ParseGraphSpec(cr.Gen); err != nil {
				t.Error(err)
			} else if err := color.Verify(g, got.Colors); err != nil {
				t.Errorf("job %d (%s): %v", i, cr.Gen, err)
			} else if got.Scattered {
				scattered.Add(1)
			}
			if done.Add(1) >= killAt {
				kill.Do(func() {
					victim.ts.CloseClientConnections()
					victim.ts.Close()
				})
			}
		}(i)
	}
	wg.Wait()
	st := coord.Stats()
	t.Logf("%d jobs, %d scattered; redispatches %d, route failovers %d",
		jobs, scattered.Load(), st.Redispatches, st.RouteFailovers)
	if scattered.Load() != jobs/3 {
		t.Errorf("%d jobs scattered, want %d", scattered.Load(), jobs/3)
	}
}
