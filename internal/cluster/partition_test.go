package cluster_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/journal"
	"gcolor/internal/netchaos"
	"gcolor/internal/serve"
)

// The partition drill: the control plane's failure story end to end, on
// three in-process workers. TestPartitionDrillFailover partitions a worker
// and hard-kills the primary coordinator under load while a standby tails
// its journal; TestPartitionDrillGray slows one worker and checks that the
// coordinator routes around it.

// drillHeartbeat is the standby's probe interval, and the bound on its
// takeover.
const drillHeartbeat = 150 * time.Millisecond

// TestPartitionDrillFailover: a journaled primary coordinator (epoch lease
// from its journal directory) fronts three workers, one of them reached
// through a netchaos TCP proxy, and a warm standby tails the same journal
// directory and probes the primary. Mid-load the proxied worker is
// partitioned, then the primary is hard-killed: listener and connections
// severed, no drain, journal left open. Clients retry with idempotency
// keys against the shared front-door address. Gates: no job is lost; the
// standby's takeover (lease, journal tail, bind, coordinator ready) takes
// at most one heartbeat interval; the accept journaled without a
// completion is replayed with zero failures; an idempotent retry across
// the failover returns the coloring computed before it; fault-window
// throughput is at least 0.70x the healthy window's.
func TestPartitionDrillFailover(t *testing.T) {
	ws := newSimWorkers(t, 3)
	peers := make([]string, len(ws))
	for i, w := range ws {
		peers[i] = w.ts.URL
	}
	// The fleet knows worker 0 by the proxy's address, so partitioning the
	// proxy's target severs it.
	in := netchaos.New(9)
	victimHost := strings.TrimPrefix(ws[0].ts.URL, "http://")
	proxy, err := netchaos.NewProxy("127.0.0.1:0", victimHost, in)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	peers[0] = "http://" + proxy.Addr()

	dir := t.TempDir()
	lease, err := cluster.AcquireLease(dir, "primary")
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	primary := cluster.NewCoordinator(cluster.Config{
		Peers:             peers,
		HeartbeatInterval: 100 * time.Millisecond,
		Epoch:             lease.Epoch,
		Journal:           jnl,
	})
	defer primary.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frontAddr := ln.Addr().String()
	frontURL := "http://" + frontAddr
	primaryHS := &http.Server{Handler: cluster.Handler(primary)}
	go primaryHS.Serve(ln)
	defer primaryHS.Close()

	client := &http.Client{Timeout: 30 * time.Second}
	var seq atomic.Int64
	const healthyWindow, faultWindow = 3 * time.Second, 8 * time.Second
	healthy, _, lost := drillLoad(client, frontURL, healthyWindow, 2*time.Second, &seq)
	if lost != 0 {
		t.Fatalf("healthy window lost %d jobs", lost)
	}

	// Pin one idempotent job before the failover, and journal one accept
	// with no completion: what a crash mid-dispatch leaves behind.
	pin := &serve.ColorRequest{Gen: "grid:12:12", Alg: "baseline", IncludeColors: true}
	before, err := drillPost(client, frontURL, pin, "idem-pin")
	if err != nil {
		t.Fatalf("pin job: %v", err)
	}
	wire, _ := json.Marshal(&serve.ColorRequest{Gen: "grid:9:9", Alg: "baseline"})
	if err := jnl.AppendAccept(journal.AcceptRecord{
		ID: "job-lost", IdemKey: "idem-lost",
		AcceptedUnixMS: time.Now().UnixMilli(),
		Wire:           json.RawMessage(wire),
	}); err != nil {
		t.Fatal(err)
	}

	// The warm standby takes over the front-door address once the primary
	// goes silent, and serves on it at once.
	sb := cluster.NewStandby(cluster.StandbyConfig{
		JournalDir:        dir,
		PrimaryURL:        frontURL,
		TakeoverAddr:      frontAddr,
		HeartbeatInterval: drillHeartbeat,
		MissThreshold:     2,
		Owner:             "standby",
		Journal:           journal.Options{Fsync: journal.FsyncAlways},
		Cluster: cluster.Config{
			Peers:             peers,
			HeartbeatInterval: 100 * time.Millisecond,
		},
	})
	sbCtx, sbCancel := context.WithTimeout(context.Background(), time.Minute)
	defer sbCancel()
	type promoted struct {
		tk *cluster.Takeover
		hs *http.Server
	}
	tkCh := make(chan promoted, 1)
	sbErr := make(chan error, 1)
	go func() {
		tk, err := sb.Run(sbCtx)
		if err != nil {
			sbErr <- err
			return
		}
		hs := &http.Server{Handler: cluster.Handler(tk.Coordinator)}
		go hs.Serve(tk.Listener)
		tkCh <- promoted{tk, hs}
	}()

	// Fault window: partition the proxied worker at +1 s and hard-kill the
	// primary at +2 s, while the load keeps retrying.
	go func() {
		time.Sleep(time.Second)
		in.Partition(victimHost)
		time.Sleep(time.Second)
		_ = primaryHS.Close() // listener and live connections die
		primary.Close()       // its background probes stop, as a dead process's would
	}()
	faulted, retried, lost := drillLoad(client, frontURL, faultWindow, 10*time.Second, &seq)
	ratio := (float64(faulted) / faultWindow.Seconds()) / (float64(healthy) / healthyWindow.Seconds())

	var p promoted
	select {
	case p = <-tkCh:
	case err := <-sbErr:
		t.Fatalf("standby: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("standby never took over")
	}
	defer p.tk.Journal.Close()
	defer p.tk.Coordinator.Close()
	defer p.hs.Close()

	var st cluster.Stats
	deadline := time.Now().Add(10 * time.Second)
	for st = p.tk.Coordinator.Stats(); !st.RecoveryDone; st = p.tk.Coordinator.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("takeover recovery never finished: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	after, err := drillPost(client, frontURL, pin, "idem-pin")
	if err != nil {
		t.Fatalf("pin replay: %v", err)
	}
	t.Logf("%d healthy + %d fault-window jobs (%d retried, %d lost), throughput %.2fx healthy; takeover %d ms at epoch %d, %d pending replayed (%d failed); %d requests through the chaos proxy",
		healthy, faulted, retried, lost, ratio, st.TakeoverMS, p.tk.Epoch, p.tk.Pending, st.RecoveryFailed, in.Stats().Requests)

	if lost != 0 {
		t.Errorf("fault window lost %d jobs", lost)
	}
	if st.TakeoverMS > drillHeartbeat.Milliseconds() {
		t.Errorf("takeover took %d ms, over the %d ms heartbeat interval", st.TakeoverMS, drillHeartbeat.Milliseconds())
	}
	if p.tk.Pending < 1 || st.RecoveryFailed != 0 {
		t.Errorf("takeover replayed %d pending accepts with %d failures; want the journaled accept, with none", p.tk.Pending, st.RecoveryFailed)
	}
	if !after.IdempotentReplay || after.NumColors != before.NumColors || !slices.Equal(after.Colors, before.Colors) {
		t.Errorf("idempotent retry across the failover (replay %v, %d colors) is not the answer from before it (%d colors)",
			after.IdempotentReplay, after.NumColors, before.NumColors)
	}
	if ratio < 0.70 {
		t.Errorf("fault-window throughput is %.2fx the healthy window's; want >= 0.70x", ratio)
	}
}

// TestPartitionDrillGray: one worker answers 2xx but about 10x slower
// (netchaos SlowHost on the coordinator's client). The coordinator must
// take it out of the rendezvous rank (gray demotions > 0, the worker
// marked gray) without tripping its breaker (zero quarantines), so that
// the steady-state P99 after the demotion stays within 2x the healthy
// fleet's. The slowed worker is the one that ran the most baseline jobs:
// rendezvous over content gives it the largest share of the keys, often
// half or more, so it weighs most in the fleet's latency and the warm-up
// sends it enough jobs to demote it.
func TestPartitionDrillGray(t *testing.T) {
	const warmup, measured = 60, 150
	ws := newSimWorkers(t, 3)
	addrs := make([]string, len(ws))
	for i, w := range ws {
		addrs[i] = w.ts.URL
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Healthy baseline: the same fleet, no chaos.
	base := cluster.NewCoordinator(cluster.Config{Peers: addrs, HeartbeatInterval: 100 * time.Millisecond})
	baseTS := httptest.NewServer(cluster.Handler(base))
	baseLats, err := drillMix(client, baseTS.URL, measured, 0)
	baseTS.Close()
	busiest := slices.MaxFunc(base.Stats().Members, func(a, b cluster.MemberInfo) int { return cmp.Compare(a.Jobs, b.Jobs) })
	base.Close()
	if err != nil {
		t.Fatalf("baseline mix: %v", err)
	}
	baseP99 := quantile(baseLats, 0.99)

	slowAddr := busiest.Addr
	slowDelay := max(10*quantile(baseLats, 0.50), 25*time.Millisecond)
	in := netchaos.New(11)
	in.SlowHost(strings.TrimPrefix(slowAddr, "http://"), slowDelay)
	gray := cluster.NewCoordinator(cluster.Config{
		Peers:             addrs,
		HeartbeatInterval: 100 * time.Millisecond,
		Client:            &http.Client{Transport: in.Transport(http.DefaultTransport), Timeout: 30 * time.Second},
	})
	defer gray.Close()
	grayTS := httptest.NewServer(cluster.Handler(gray))
	defer grayTS.Close()

	// The warm-up gives the latency EWMA the traffic to demote the slow
	// worker; the window after it is what clients feel.
	if _, err := drillMix(client, grayTS.URL, warmup, 1000); err != nil {
		t.Fatalf("gray warm-up: %v", err)
	}
	grayLats, err := drillMix(client, grayTS.URL, measured, 2000)
	if err != nil {
		t.Fatalf("gray mix: %v", err)
	}
	grayP99 := quantile(grayLats, 0.99)
	ratio := float64(grayP99) / float64(baseP99)

	st := gray.Stats()
	slowGray := false
	for _, m := range st.Members {
		if m.Addr == slowAddr && m.Gray {
			slowGray = true
		}
	}
	t.Logf("slow worker +%v (%d of %d baseline jobs): healthy P99 %v, steady-state P99 %v (%.2fx); %d gray demotions, %d quarantines",
		slowDelay, busiest.Jobs, measured, baseP99, grayP99, ratio, st.GrayDemotions, st.Quarantines)

	if st.GrayDemotions == 0 {
		t.Error("the slow worker never lost its rendezvous rank")
	}
	if st.Quarantines != 0 {
		t.Errorf("the breaker tripped %d times on a slow but 2xx worker", st.Quarantines)
	}
	if !slowGray {
		t.Errorf("the slow worker is not marked gray: %+v", st.Members)
	}
	if ratio > 2 {
		t.Errorf("steady-state P99 %v is %.2fx the healthy %v; want <= 2x", grayP99, ratio, baseP99)
	}
}

// drillLoad runs idempotency-keyed jobs against front from 4 clients until
// window closes. Each job is retried, after a short backoff, until it
// succeeds or grace has passed since the window closed: the client's side
// of a failover. It returns the jobs completed, those that needed more
// than one attempt, and those lost.
func drillLoad(client *http.Client, front string, window, grace time.Duration, seq *atomic.Int64) (completed, retried, lost int) {
	var done, again, gone atomic.Int64
	stop := time.Now().Add(window)
	deadline := stop.Add(grace)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := seq.Add(1)
				cr := &serve.ColorRequest{Gen: fmt.Sprintf("rmat:9:8:%d", 1+i%16), Alg: "hybrid", Seed: uint32(i), NoCache: true}
				for attempt := 1; ; attempt++ {
					if _, err := drillPost(client, front, cr, fmt.Sprintf("drill-%d", i)); err == nil {
						done.Add(1)
						if attempt > 1 {
							again.Add(1)
						}
						break
					}
					if time.Now().After(deadline) {
						gone.Add(1)
						break
					}
					time.Sleep(time.Duration(20+i%30) * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	return int(done.Load()), int(again.Load()), int(gone.Load())
}

// drillMix sends n distinct no-cache jobs, 4 at a time, and returns their
// latencies; offset shifts the seeds so that windows do not repeat jobs.
func drillMix(client *http.Client, coordURL string, n, offset int) ([]time.Duration, error) {
	var (
		mu    sync.Mutex
		lats  []time.Duration
		first error
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, 4)
	for i := offset; i < offset+n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			cr := &serve.ColorRequest{Gen: fmt.Sprintf("rmat:9:8:%d", 1+i%16), Alg: "hybrid", Seed: uint32(i), NoCache: true}
			start := time.Now()
			_, err := drillPost(client, coordURL, cr, "")
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				first = cmp.Or(first, err)
				return
			}
			lats = append(lats, time.Since(start))
		}()
	}
	wg.Wait()
	return lats, first
}

// quantile returns the q-quantile of lats (nearest rank below).
func quantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := slices.Clone(lats)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}

// drillPost sends one job to the front door and decodes the reply. A
// non-empty idemKey rides as the Idempotency-Key, so a retry across the
// failover is a replay rather than a recompute. Every failure, transport
// or HTTP, is an error: the drill's clients retry them.
func drillPost(client *http.Client, coordURL string, cr *serve.ColorRequest, idemKey string) (*serve.ColorResponse, error) {
	body, err := json.Marshal(cr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, coordURL+"/color", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	var out serve.ColorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
