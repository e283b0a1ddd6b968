package gcolor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcolor"
)

// TestPublicAPIEndToEnd walks the documented quickstart path through the
// facade: generate, color on the device, verify, inspect the evidence.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := gcolor.RMAT(9, 8, 1)
	if g.NumVertices() != 512 {
		t.Fatalf("RMAT(9) has %d vertices, want 512", g.NumVertices())
	}
	for _, alg := range []gcolor.Algorithm{
		gcolor.AlgBaseline, gcolor.AlgMaxMin, gcolor.AlgJP, gcolor.AlgSpeculative, gcolor.AlgHybrid,
	} {
		dev := gcolor.NewDevice()
		res, err := gcolor.ColorGPU(dev, g, alg, gcolor.Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := gcolor.Verify(g, res.Colors); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
		if res.Cycles <= 0 || res.NumColors <= 0 {
			t.Errorf("%v: empty evidence: cycles=%d colors=%d", alg, res.Cycles, res.NumColors)
		}
	}
}

func TestPublicAPISchedulingPolicies(t *testing.T) {
	g := gcolor.RMAT(10, 8, 1)
	for _, p := range []gcolor.Policy{gcolor.Static, gcolor.RoundRobin, gcolor.Stealing} {
		dev := gcolor.NewDevice()
		dev.Policy = p
		if _, err := gcolor.ColorGPU(dev, g, gcolor.AlgBaseline, gcolor.Options{}); err != nil {
			t.Errorf("policy %v: %v", p, err)
		}
	}
}

func TestPublicAPICPUAlgorithms(t *testing.T) {
	g := gcolor.RandomGraph(300, 1200, 2)
	for _, o := range []gcolor.Ordering{gcolor.Natural, gcolor.LargestFirst, gcolor.SmallestLast, gcolor.RandomOrder} {
		colors := gcolor.ColorGreedy(g, o, 1)
		if err := gcolor.Verify(g, colors); err != nil {
			t.Errorf("greedy %v: %v", o, err)
		}
	}
	jp := gcolor.ColorJonesPlassmann(g, 1, 0)
	if err := gcolor.Verify(g, jp); err != nil {
		t.Errorf("jones-plassmann: %v", err)
	}
}

func TestPublicAPIGraphIO(t *testing.T) {
	g := gcolor.Grid2D(6, 7)
	var buf bytes.Buffer
	if err := gcolor.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := gcolor.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Errorf("round trip changed the graph: %v vs %v", back, g)
	}
}

func TestPublicAPIUncoloredSentinel(t *testing.T) {
	if gcolor.Uncolored != -1 {
		t.Errorf("Uncolored = %d, want -1", gcolor.Uncolored)
	}
	if gcolor.NumColors([]int32{0, 1, 1}) != 2 {
		t.Error("NumColors wrong through facade")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment in -short mode")
	}
	var sb strings.Builder
	if err := gcolor.RunExperiment("T1", &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rmat") {
		t.Errorf("T1 output missing datasets:\n%s", sb.String())
	}
	if err := gcolor.RunExperiment("nope", &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestPublicAPIJournal walks the durability path through the facade: open
// a journal, serve a journaled job, crash-free restart on the same
// directory, and check the recovered server answers from its warm cache.
func TestPublicAPIJournal(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := gcolor.OpenJournal(dir, gcolor.JournalOptions{Fsync: gcolor.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 0 || len(rec.Completions) != 0 {
		t.Fatalf("fresh journal recovered state: %d pending, %d completions", len(rec.Pending), len(rec.Completions))
	}

	g, err := gcolor.ParseGraphSpec("grid:8:8")
	if err != nil {
		t.Fatal(err)
	}
	srv := gcolor.NewServer(gcolor.ServeConfig{Devices: 1, Journal: j, Recovery: rec})
	req := &gcolor.ServeRequest{
		Graph:     g,
		RequestID: "facade-1",
		IdemKey:   "facade-idem",
		Wire:      json.RawMessage(`{"gen":"grid:8:8"}`),
	}
	res, err := srv.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors < 2 {
		t.Fatalf("NumColors = %d", res.NumColors)
	}
	srv.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2, err := gcolor.OpenJournal(dir, gcolor.JournalOptions{Fsync: gcolor.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rec2.Completions) == 0 {
		t.Fatal("restart recovered no completions")
	}
	srv2 := gcolor.NewServer(gcolor.ServeConfig{Devices: 1, Journal: j2, Recovery: rec2})
	defer srv2.Stop()
	<-srv2.RecoveryDone()
	info := srv2.RecoveryInfo()
	if !info.Enabled || info.WarmedCache == 0 || info.WarmedIdem == 0 {
		t.Fatalf("recovery info: %+v", info)
	}
	res2, err := srv2.Submit(context.Background(), &gcolor.ServeRequest{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("recovered server missed its warm cache")
	}
	if res2.NumColors != res.NumColors {
		t.Errorf("answer changed across restart: %d vs %d colors", res2.NumColors, res.NumColors)
	}
}

// TestPublicAPICluster walks the distributed-fleet facade: two workers
// exposed via ServeHandler, a Coordinator fronting them, one routed job
// and one forced scatter-gather through the public wire contract.
func TestPublicAPICluster(t *testing.T) {
	var workers []*httptest.Server
	for i := 0; i < 2; i++ {
		srv := gcolor.NewServer(gcolor.ServeConfig{Devices: 1})
		ts := httptest.NewServer(gcolor.ServeHandler(srv))
		t.Cleanup(func() { ts.Close(); srv.Stop() })
		workers = append(workers, ts)
	}
	coord := gcolor.NewCoordinator(gcolor.ClusterConfig{
		Peers:             []string{workers[0].URL, workers[1].URL},
		HeartbeatInterval: -1, // liveness from static registration; no background probes
	})
	defer coord.Close()
	front := httptest.NewServer(gcolor.ClusterHandler(coord))
	defer front.Close()

	post := func(body string) map[string]any {
		resp, err := http.Post(front.URL+"/color", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	routed := post(`{"gen":"grid:12:12","alg":"baseline"}`)
	if routed["worker"] == "" || routed["scattered"] == true {
		t.Fatalf("whole-graph job not routed to one worker: %v", routed)
	}
	scattered := post(`{"gen":"grid:16:16","alg":"baseline","shards":2,"include_colors":true}`)
	if scattered["scattered"] != true {
		t.Fatalf("forced 2-shard job did not scatter: %v", scattered)
	}

	st := coord.Stats()
	if st.Workers != 2 || st.Routed != 1 || st.Scattered != 1 {
		t.Fatalf("stats workers=%d routed=%d scattered=%d, want 2/1/1", st.Workers, st.Routed, st.Scattered)
	}
}
