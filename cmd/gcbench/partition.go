// Partition-tolerance drill (-partition): exercises the control plane's
// failure story end to end and gates it, writing BENCH_PR9.json.
//
// Phase 1 — failover under chaos. A journaled primary coordinator (epoch
// lease acquired from its journal directory) fronts a small fleet in
// which one worker sits behind a netchaos TCP proxy. A warm standby tails
// the same journal directory and probes the primary. Mid-load the proxied
// worker is partitioned, then the primary is hard-killed (listener and
// connections severed, journal left unflushed-clean, no goodbye). Clients
// retry with idempotency keys against the shared front-door address.
// Gates:
//
//   - zero lost jobs: every accepted job completes, through retries;
//   - the standby's takeover (lease, journal tail drain, bind, replay
//     start) finishes within one heartbeat interval;
//   - the accept journaled without a completion is replayed with zero
//     recovery failures;
//   - an idempotent retry across the failover returns the identical
//     coloring computed before the primary died;
//   - fault-window throughput stays >= 70% of the healthy window.
//
// Phase 2 — gray failure. A fresh fleet where one worker answers 2xx but
// ~10x slower (netchaos SlowHost on the coordinator's client). Gates: the
// slow worker loses rendezvous rank (gray demotions > 0) while its
// breaker stays closed (zero quarantines), and the steady-state
// default-mix P99 after demotion stays within 2x the healthy baseline.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/journal"
	"gcolor/internal/netchaos"
	"gcolor/internal/serve"
)

const (
	partHeartbeat       = 150 * time.Millisecond
	partThroughputFloor = 0.70
	partGrayP99Limit    = 2.0
)

type partFailoverOut struct {
	Jobs                int     `json:"jobs"`
	Lost                int     `json:"lost"`
	Retried             int     `json:"retried_jobs"`
	HealthyWindowSec    float64 `json:"healthy_window_seconds"`
	FaultWindowSec      float64 `json:"fault_window_seconds"`
	HealthyJobsPerSec   float64 `json:"healthy_jobs_per_sec"`
	FaultJobsPerSec     float64 `json:"fault_jobs_per_sec"`
	ThroughputRatio     float64 `json:"throughput_ratio"`
	TakeoverMS          int64   `json:"takeover_ms"`
	TakeoverEpoch       uint64  `json:"takeover_epoch"`
	PendingReplayed     int     `json:"pending_replayed"`
	RecoveryFailed      int64   `json:"recovery_failed"`
	ReplayFailed        int64   `json:"replay_failed"` // alias of recovery_failed for gate tooling
	IdempotentIdentical bool    `json:"idempotent_replay_identical"`
	PartitionedWorker   string  `json:"partitioned_worker"`
	ChaosRequests       int64   `json:"chaos_requests"`
}

type partGrayOut struct {
	WarmupJobs     int     `json:"warmup_jobs"`
	MeasuredJobs   int     `json:"measured_jobs"`
	SlowDelayMS    float64 `json:"slow_delay_ms"`
	BaselineP99MS  float64 `json:"baseline_p99_ms"`
	GrayP99MS      float64 `json:"gray_p99_ms"`
	P99Ratio       float64 `json:"p99_ratio"`
	GrayDemotions  int64   `json:"gray_demotions"`
	Quarantines    int64   `json:"quarantines"`
	SlowWorkerGray bool    `json:"slow_worker_gray"`
}

type partitionReport struct {
	Bench           string          `json:"bench"`
	Workers         int             `json:"workers"`
	HeartbeatMS     int64           `json:"heartbeat_ms"`
	ThroughputFloor float64         `json:"throughput_floor"`
	GrayP99Limit    float64         `json:"gray_p99_limit"`
	Failover        partFailoverOut `json:"failover"`
	Gray            partGrayOut     `json:"gray"`
}

func runPartitionBench(jsonPath string, workers int) error {
	if workers < 3 {
		return fmt.Errorf("-partition needs at least 3 workers, got %d", workers)
	}
	rep := partitionReport{
		Bench:           "partition-tolerance",
		Workers:         workers,
		HeartbeatMS:     partHeartbeat.Milliseconds(),
		ThroughputFloor: partThroughputFloor,
		GrayP99Limit:    partGrayP99Limit,
	}

	fo, err := runFailoverDrill(workers)
	if err != nil {
		return fmt.Errorf("failover drill: %w", err)
	}
	rep.Failover = *fo
	if fo.Lost != 0 {
		return fmt.Errorf("failover drill lost %d jobs", fo.Lost)
	}
	if fo.RecoveryFailed != 0 {
		return fmt.Errorf("failover drill: %d replay failures", fo.RecoveryFailed)
	}
	if fo.TakeoverMS > partHeartbeat.Milliseconds() {
		return fmt.Errorf("takeover took %dms, over the %dms heartbeat interval", fo.TakeoverMS, partHeartbeat.Milliseconds())
	}
	if !fo.IdempotentIdentical {
		return fmt.Errorf("idempotent retry across failover was not an identical replay")
	}
	if fo.ThroughputRatio < partThroughputFloor {
		return fmt.Errorf("fault-window throughput %.2f of healthy, below the %.2f floor",
			fo.ThroughputRatio, partThroughputFloor)
	}

	gr, err := runGrayDrill(workers)
	if err != nil {
		return fmt.Errorf("gray drill: %w", err)
	}
	rep.Gray = *gr
	if gr.GrayDemotions == 0 {
		return fmt.Errorf("gray drill: slow worker never lost rendezvous rank")
	}
	if gr.Quarantines != 0 {
		return fmt.Errorf("gray drill: breaker tripped %d times on a slow-but-2xx worker", gr.Quarantines)
	}
	if !gr.SlowWorkerGray {
		return fmt.Errorf("gray drill: slow worker not marked gray in membership")
	}
	if gr.P99Ratio > partGrayP99Limit {
		return fmt.Errorf("gray drill: steady-state P99 %.1fms is %.2fx healthy %.1fms (limit %.1fx)",
			gr.GrayP99MS, gr.P99Ratio, gr.BaselineP99MS, partGrayP99Limit)
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
	fmt.Fprintf(os.Stderr, "gcbench: partition drill ok: takeover %dms, 0/%d lost, throughput %.2fx, gray P99 %.2fx -> %s\n",
		fo.TakeoverMS, fo.Jobs, fo.ThroughputRatio, gr.P99Ratio, jsonPath)
	return nil
}

// partLoad runs jobs against front until the window closes. Each job is
// idempotency-keyed and retried (with a short backoff) until it succeeds
// or the grace deadline passes — the client-side contract during a
// failover. Returns completed, retried (jobs needing >1 attempt), lost.
func partLoad(client *http.Client, front string, window, grace time.Duration, conc int, seq *atomic.Int64) (completed, retried, lost int) {
	var (
		wg    sync.WaitGroup
		cDone atomic.Int64
		cRet  atomic.Int64
		cLost atomic.Int64
	)
	stop := time.Now().Add(window)
	deadline := stop.Add(grace)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := seq.Add(1)
				cr := &serve.ColorRequest{
					Gen:     fmt.Sprintf("rmat:9:8:%d", 1+i%16),
					Alg:     "hybrid",
					Seed:    uint32(i),
					NoCache: true,
				}
				attempts := 0
				for {
					attempts++
					_, err := postColor(client, front, cr, fmt.Sprintf("drill-%d", i))
					if err == nil {
						cDone.Add(1)
						if attempts > 1 {
							cRet.Add(1)
						}
						break
					}
					if time.Now().After(deadline) {
						cLost.Add(1)
						break
					}
					time.Sleep(time.Duration(20+i%30) * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	return int(cDone.Load()), int(cRet.Load()), int(cLost.Load())
}

// postColor sends one job to the front door and decodes the reply. A
// non-empty idemKey rides as the Idempotency-Key, so cross-failover
// retries of the same job are replays rather than recomputes.
func postColor(client *http.Client, coordURL string, cr *serve.ColorRequest, idemKey string) (*serve.ColorResponse, error) {
	body, err := json.Marshal(cr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, coordURL+"/color", strings.NewReader(string(body)))
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
		var er struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return nil, fmt.Errorf("http %d (%s): %s", resp.StatusCode, er.Kind, er.Error)
	}
	var out serve.ColorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// clusterWorkerProc is one in-process worker daemon on a loopback port.
type clusterWorkerProc struct {
	addr string
	srv  *serve.Server
	hs   *http.Server
}

// startClusterWorker boots one worker daemon on a loopback port with one
// device of workersPer simulation workers; the drills split the host's
// parallelism evenly among their workers, each standing in for a machine.
func startClusterWorker(workersPer int) (*clusterWorkerProc, error) {
	srv := serve.NewServer(serve.Config{
		Devices: 1,
		Device:  serve.DeviceConfig{Workers: workersPer},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, err
	}
	hs := &http.Server{Handler: serve.Handler(srv)}
	go func() { _ = hs.Serve(ln) }()
	return &clusterWorkerProc{addr: "http://" + ln.Addr().String(), srv: srv, hs: hs}, nil
}

func (w *clusterWorkerProc) stop() {
	_ = w.hs.Close()
	w.srv.Stop()
}

func runFailoverDrill(workers int) (*partFailoverOut, error) {
	per := runtime.GOMAXPROCS(0) / workers
	if per < 1 {
		per = 1
	}
	procs := make([]*clusterWorkerProc, workers)
	peerAddrs := make([]string, workers)
	var err error
	for i := range procs {
		if procs[i], err = startClusterWorker(per); err != nil {
			return nil, err
		}
		peerAddrs[i] = procs[i].addr
	}
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()

	// Worker 0 is reached through a chaos TCP proxy: the fleet knows it by
	// the proxy address, and partitioning the proxy's target severs it.
	in := netchaos.New(9)
	victimHost := strings.TrimPrefix(procs[0].addr, "http://")
	proxy, err := netchaos.NewProxy("127.0.0.1:0", victimHost, in)
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	peerAddrs[0] = "http://" + proxy.Addr()

	dir, err := os.MkdirTemp("", "gcbench-partition-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Primary: epoch lease + journal, serving on the fleet's front door.
	lease, err := cluster.AcquireLease(dir, "primary")
	if err != nil {
		return nil, err
	}
	jnl, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		return nil, err
	}
	primary := cluster.NewCoordinator(cluster.Config{
		Peers:             peerAddrs,
		HeartbeatInterval: 100 * time.Millisecond,
		Epoch:             lease.Epoch,
		Journal:           jnl,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	frontAddr := ln.Addr().String()
	frontURL := "http://" + frontAddr
	primaryHS := &http.Server{Handler: cluster.Handler(primary)}
	go func() { _ = primaryHS.Serve(ln) }()

	client := &http.Client{Timeout: 30 * time.Second}
	out := &partFailoverOut{PartitionedWorker: peerAddrs[0]}

	// Healthy window: baseline throughput through the live primary.
	var seq atomic.Int64
	healthyWindow := 3 * time.Second
	done, _, lost := partLoad(client, frontURL, healthyWindow, 2*time.Second, 4, &seq)
	if lost != 0 {
		return nil, fmt.Errorf("healthy window lost %d jobs", lost)
	}
	out.HealthyWindowSec = healthyWindow.Seconds()
	out.HealthyJobsPerSec = float64(done) / healthyWindow.Seconds()
	out.Jobs = done

	// Pin one idempotent job pre-failover, and journal one accept with no
	// completion — the signature a crash mid-dispatch leaves behind.
	pin := &serve.ColorRequest{Gen: "grid:12:12", Alg: "baseline", IncludeColors: true}
	res1, err := postColor(client, frontURL, pin, "idem-pin")
	if err != nil {
		return nil, fmt.Errorf("pin job: %w", err)
	}
	wire, _ := json.Marshal(&serve.ColorRequest{Gen: "grid:9:9", Alg: "baseline"})
	if err := jnl.AppendAccept(journal.AcceptRecord{
		ID: "job-lost", IdemKey: "idem-lost",
		AcceptedUnixMS: time.Now().UnixMilli(),
		Wire:           json.RawMessage(wire),
	}); err != nil {
		return nil, err
	}

	// Warm standby: tails the journal directory, probes the front door,
	// takes over the same address when the primary goes silent.
	sbCtx, sbCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer sbCancel()
	sb := cluster.NewStandby(cluster.StandbyConfig{
		JournalDir:        dir,
		PrimaryURL:        frontURL,
		TakeoverAddr:      frontAddr,
		HeartbeatInterval: partHeartbeat,
		MissThreshold:     2,
		Owner:             "standby",
		Journal:           journal.Options{Fsync: journal.FsyncAlways},
		Cluster: cluster.Config{
			Peers:             peerAddrs,
			HeartbeatInterval: 100 * time.Millisecond,
		},
	})
	tkCh := make(chan *cluster.Takeover, 1)
	sbErr := make(chan error, 1)
	go func() {
		tk, err := sb.Run(sbCtx)
		if err != nil {
			sbErr <- err
			return
		}
		go func() { _ = (&http.Server{Handler: cluster.Handler(tk.Coordinator)}).Serve(tk.Listener) }()
		tkCh <- tk
	}()

	// Fault window: partition the proxied worker at +1s, hard-kill the
	// primary at +2s. Load keeps flowing with retries the whole time.
	faultWindow := 8 * time.Second
	go func() {
		time.Sleep(1 * time.Second)
		fmt.Fprintln(os.Stderr, "gcbench: partitioning proxied worker")
		in.Partition(victimHost)
		time.Sleep(1 * time.Second)
		fmt.Fprintln(os.Stderr, "gcbench: hard-killing primary coordinator")
		_ = primaryHS.Close() // listener + live connections die; no drain, no journal close
		primary.Close()       // background probes stop, as a dead process's would
	}()
	fDone, fRetried, fLost := partLoad(client, frontURL, faultWindow, 10*time.Second, 4, &seq)
	out.Jobs += fDone
	out.Retried = fRetried
	out.Lost = fLost
	out.FaultWindowSec = faultWindow.Seconds()
	out.FaultJobsPerSec = float64(fDone) / faultWindow.Seconds()
	if out.HealthyJobsPerSec > 0 {
		out.ThroughputRatio = out.FaultJobsPerSec / out.HealthyJobsPerSec
	}

	var tk *cluster.Takeover
	select {
	case tk = <-tkCh:
	case err := <-sbErr:
		return nil, fmt.Errorf("standby: %w", err)
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("standby never took over")
	}
	defer tk.Journal.Close()
	defer tk.Coordinator.Close()
	out.TakeoverEpoch = tk.Epoch
	out.PendingReplayed = tk.Pending

	// The journaled-but-unfinished accept must replay cleanly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := tk.Coordinator.Stats()
		if st.RecoveryDone {
			out.TakeoverMS = st.TakeoverMS
			out.RecoveryFailed = st.RecoveryFailed
			out.ReplayFailed = st.RecoveryFailed
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("takeover recovery never finished: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The idempotent retry of the pinned job must be a replay of the exact
	// pre-failover answer.
	res2, err := postColor(client, frontURL, pin, "idem-pin")
	if err != nil {
		return nil, fmt.Errorf("pin replay: %w", err)
	}
	out.IdempotentIdentical = res2.IdempotentReplay &&
		res2.NumColors == res1.NumColors && len(res2.Colors) == len(res1.Colors)
	if out.IdempotentIdentical {
		for i := range res2.Colors {
			if res2.Colors[i] != res1.Colors[i] {
				out.IdempotentIdentical = false
				break
			}
		}
	}
	out.ChaosRequests = in.Stats().Requests
	return out, nil
}

// runGrayDrill measures the latency cost of one slow-but-2xx worker: the
// coordinator must demote it out of the rendezvous rank (no breaker trip)
// so steady-state tail latency recovers to the healthy baseline.
func runGrayDrill(workers int) (*partGrayOut, error) {
	per := runtime.GOMAXPROCS(0) / workers
	if per < 1 {
		per = 1
	}
	procs := make([]*clusterWorkerProc, workers)
	addrs := make([]string, workers)
	var err error
	for i := range procs {
		if procs[i], err = startClusterWorker(per); err != nil {
			return nil, err
		}
		addrs[i] = procs[i].addr
	}
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()

	mix := func(client *http.Client, coordURL string, n, offset int) ([]float64, error) {
		lats := make([]float64, 0, n)
		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, 4)
		errCh := make(chan error, 1)
		for i := 0; i < n; i++ {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				cr := &serve.ColorRequest{
					Gen:     fmt.Sprintf("rmat:9:8:%d", 1+(offset+i)%16),
					Alg:     "hybrid",
					Seed:    uint32(offset + i),
					NoCache: true,
				}
				t0 := time.Now()
				if _, err := postColor(client, coordURL, cr, ""); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				mu.Lock()
				lats = append(lats, float64(time.Since(t0).Microseconds())/1000)
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		select {
		case err := <-errCh:
			return nil, err
		default:
		}
		return lats, nil
	}
	p := func(lats []float64, q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		s := append([]float64(nil), lats...)
		sort.Float64s(s)
		i := int(q * float64(len(s)-1))
		return s[i]
	}

	const measured = 150
	out := &partGrayOut{WarmupJobs: 60, MeasuredJobs: measured}

	// Healthy baseline: the same fleet, no chaos.
	base := cluster.NewCoordinator(cluster.Config{
		Peers:             addrs,
		HeartbeatInterval: 100 * time.Millisecond,
	})
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		base.Close()
		return nil, err
	}
	hsB := &http.Server{Handler: cluster.Handler(base)}
	go func() { _ = hsB.Serve(lnB) }()
	plain := &http.Client{Timeout: 30 * time.Second}
	baseLats, err := mix(plain, "http://"+lnB.Addr().String(), measured, 0)
	hsB.Close()
	base.Close()
	if err != nil {
		return nil, fmt.Errorf("baseline mix: %w", err)
	}
	out.BaselineP99MS = p(baseLats, 0.99)

	// Gray fleet: worker 0 answers ~10x slower through the coordinator's
	// client (netchaos per-link latency), everything else untouched.
	slowDelay := time.Duration(10*p(baseLats, 0.50)) * time.Millisecond
	if slowDelay < 25*time.Millisecond {
		slowDelay = 25 * time.Millisecond
	}
	out.SlowDelayMS = float64(slowDelay.Milliseconds())
	in := netchaos.New(11)
	in.SlowHost(strings.TrimPrefix(addrs[0], "http://"), slowDelay)
	chaosClient := &http.Client{Transport: in.Transport(http.DefaultTransport), Timeout: 30 * time.Second}

	gray := cluster.NewCoordinator(cluster.Config{
		Peers:             addrs,
		HeartbeatInterval: 100 * time.Millisecond,
		Client:            chaosClient,
	})
	defer gray.Close()
	lnG, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hsG := &http.Server{Handler: cluster.Handler(gray)}
	go func() { _ = hsG.Serve(lnG) }()
	defer hsG.Close()
	grayURL := "http://" + lnG.Addr().String()

	// Warmup: enough traffic for the latency EWMA to demote the slow
	// worker. The steady-state window after it is what users feel.
	if _, err := mix(plain, grayURL, out.WarmupJobs, 1000); err != nil {
		return nil, fmt.Errorf("gray warmup: %w", err)
	}
	grayLats, err := mix(plain, grayURL, measured, 2000)
	if err != nil {
		return nil, fmt.Errorf("gray mix: %w", err)
	}
	out.GrayP99MS = p(grayLats, 0.99)
	if out.BaselineP99MS > 0 {
		out.P99Ratio = out.GrayP99MS / out.BaselineP99MS
	}

	st := gray.Stats()
	out.GrayDemotions = st.GrayDemotions
	out.Quarantines = st.Quarantines
	for _, m := range st.Members {
		if m.Addr == addrs[0] && m.Gray {
			out.SlowWorkerGray = true
		}
	}
	fmt.Fprintf(os.Stderr, "gcbench: gray drill: slow +%v, baseline P99 %.1fms, steady-state P99 %.1fms (%.2fx), %d demotions, %d quarantines\n",
		slowDelay, out.BaselineP99MS, out.GrayP99MS, out.P99Ratio, st.GrayDemotions, st.Quarantines)
	return out, nil
}
