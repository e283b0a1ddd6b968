package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gcolor/internal/serve"
)

// crashDrillConfig parameterizes the crash-recovery drill: a real gcolord
// process with a write-ahead journal is killed with SIGKILL mid-load, then
// restarted on the same journal directory, and the drill asserts that no
// accepted job was silently lost and that the warm-started cache answers
// like the pre-crash one.
type crashDrillConfig struct {
	gcolordBin   string // prebuilt binary; "" builds gcolor/cmd/gcolord
	buildFlags   string // extra `go build` flags (e.g. "-race") when building
	devices      int
	conc         int
	overheadGate float64 // max tolerated journal throughput overhead fraction
	outPath      string
}

// overheadPairs is the number of journal-on/off run pairs whose median
// overhead the crash drill gates.
const overheadPairs = 5

// median returns the middle of xs (the mean of the middle two for an even
// count), sorting xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// drillReport is the JSON written to -json (default BENCH_PR6.json): the
// evidence that serving is crash-safe.
type drillReport struct {
	Devices      int     `json:"devices"`
	Concurrency  int     `json:"concurrency"`
	OverheadGate float64 `json:"overhead_gate"`

	PrimeSpecs  int     `json:"prime_specs"`
	PreHitRate  float64 `json:"pre_crash_hit_rate"`
	PostHitRate float64 `json:"post_crash_hit_rate"`

	CrashSent    int64 `json:"crash_window_sent"`
	CrashOK      int64 `json:"crash_window_ok"`
	CrashUnknown int64 `json:"crash_window_unknown"` // in flight when the daemon died
	CrashErrors  int64 `json:"crash_window_errors"`

	RecoveryWaitMS   int64 `json:"recovery_wait_ms"`
	PendingRecovered int64 `json:"pending_recovered"`
	ReplayCompleted  int64 `json:"replay_completed"`
	ReplayExpired    int64 `json:"replay_expired"`
	ReplayFailed     int64 `json:"replay_failed"`
	WarmedCache      int64 `json:"warmed_cache"`
	WarmedIdem       int64 `json:"warmed_idem"`
	TornTails        int64 `json:"torn_tails"`
	CorruptSegments  int64 `json:"corrupt_segments"`

	RetriesIssued int `json:"retries_issued"`
	RetriesOK     int `json:"retries_ok"`
	IdemReplays   int `json:"idempotent_replays"`
	ResultDrift   int `json:"result_drift"` // retries whose num_colors changed

	JournalOnRPS  float64 `json:"journal_on_rps"`
	JournalOffRPS float64 `json:"journal_off_rps"`
	OverheadFrac  float64 `json:"journal_overhead_frac"`

	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// drillOutcome records one crash-window request so it can be retried with
// the same body and Idempotency-Key against the restarted daemon.
type drillOutcome struct {
	body      []byte
	idemKey   string
	ok        bool
	unknown   bool // transport error: daemon died with the request in flight
	numColors int
}

// daemon is one managed gcolord process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	done    chan struct{} // closed once the process has been reaped
}

func startDaemon(bin, addr, logPath string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: "http://" + addr, logPath: logPath, done: make(chan struct{})}
	go func() { // reap on exit so a SIGKILL'd daemon never lingers as a zombie
		_ = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// kill delivers SIGKILL — the crash under test. No cleanup runs in the
// daemon; whatever the journal holds is all the next generation gets.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// stop asks for a graceful drain and waits for the process to go away.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
	}
}

func (d *daemon) dumpLog(prefix string) {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		fmt.Fprintf(os.Stderr, "%s: %s\n", prefix, line)
	}
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// postDrill is doRequest plus the headers the drill cares about: an
// Idempotency-Key so retries dedupe across the restart, and a request ID
// so the journal entry is traceable from the client side.
func postDrill(client *http.Client, addr string, body []byte, idemKey, reqID string) (serve.ColorResponse, int, error) {
	req, err := http.NewRequest(http.MethodPost, addr+"/color", bytes.NewReader(body))
	if err != nil {
		return serve.ColorResponse{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return serve.ColorResponse{}, 0, err
	}
	defer resp.Body.Close()
	var cr serve.ColorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			return serve.ColorResponse{}, resp.StatusCode, err
		}
	}
	return cr, resp.StatusCode, nil
}

// recoveryzState mirrors the fields of GET /recoveryz the drill asserts on.
type recoveryzState struct {
	Enabled          bool  `json:"enabled"`
	Done             bool  `json:"done"`
	WarmedCache      int64 `json:"warmed_cache"`
	WarmedIdem       int64 `json:"warmed_idem"`
	PendingRecovered int64 `json:"pending_recovered"`
	ReplayCompleted  int64 `json:"replay_completed"`
	ReplayExpired    int64 `json:"replay_expired"`
	ReplayFailed     int64 `json:"replay_failed"`
	Replay           struct {
		Records         int64 `json:"records"`
		TornTails       int64 `json:"torn_tails"`
		CorruptSegments int64 `json:"corrupt_segments"`
	} `json:"replay"`
}

func fetchRecoveryz(client *http.Client, addr string) (recoveryzState, error) {
	var st recoveryzState
	resp, err := client.Get(addr + "/recoveryz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// runCrashDrill executes the drill and returns the process exit code.
//
// Phases:
//  1. build (or reuse) a gcolord binary
//  2. generation 1: journal on; prime a distinct spec set, probe its
//     cache hit rate, then SIGKILL the daemon under concurrent
//     idempotency-keyed load
//  3. generation 2: same journal dir; wait for /recoveryz done, assert
//     every recovered pending job settled with zero replay failures
//  4. retry every crash-window request with its original Idempotency-Key
//     (all must succeed, completed ones must not change answer) and
//     re-probe the prime set (hit rate within 10% of pre-crash)
//  5. A/B throughput with journaling on vs off; overhead gated
func runCrashDrill(cfg crashDrillConfig) int {
	if cfg.devices <= 0 {
		cfg.devices = 2
	}
	if cfg.conc <= 0 {
		cfg.conc = 8
	}
	rep := drillReport{Devices: cfg.devices, Concurrency: cfg.conc, OverheadGate: cfg.overheadGate}
	var failures []string
	check := func(ok bool, format string, a ...any) {
		if !ok {
			failures = append(failures, fmt.Sprintf(format, a...))
		}
	}

	work, err := os.MkdirTemp("", "gcolor-drill-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	bin := cfg.gcolordBin
	if bin == "" {
		bin = filepath.Join(work, "gcolord")
		args := []string{"build", "-o", bin}
		if cfg.buildFlags != "" {
			args = append(args, strings.Fields(cfg.buildFlags)...)
		}
		args = append(args, "gcolor/cmd/gcolord")
		fmt.Printf("crash-drill: go %s\n", strings.Join(args, " "))
		build := exec.Command("go", args...)
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			fatal(fmt.Errorf("building gcolord: %w (run from the module root?)", err))
		}
	}

	journalDir := filepath.Join(work, "wal")
	client := newLoadClient(30*time.Second, cfg.conc)
	journalArgs := []string{
		"-devices", fmt.Sprint(cfg.devices), "-shed", "1",
		"-journal-dir", journalDir, "-journal-fsync", "batch",
	}

	// ---- Generation 1: prime, probe, crash under load ----
	addr1, err := freeAddr()
	if err != nil {
		fatal(err)
	}
	gen1, err := startDaemon(bin, addr1, filepath.Join(work, "gen1.log"), journalArgs...)
	if err != nil {
		fatal(err)
	}
	defer gen1.kill()
	if err := waitHealthy(client, gen1.addr, 15*time.Second); err != nil {
		gen1.dumpLog("gen1")
		fatal(err)
	}
	fmt.Printf("crash-drill: generation 1 up at %s (journal %s)\n", gen1.addr, journalDir)

	primes := make([][]byte, 0, 16)
	for i := 0; i < 16; i++ {
		b, _ := json.Marshal(&serve.ColorRequest{Gen: fmt.Sprintf("grid:%d:16", 12+i), Alg: "baseline", TimeoutMS: 30_000})
		primes = append(primes, b)
	}
	rep.PrimeSpecs = len(primes)
	probeHitRate := func(d *daemon, label string) float64 {
		hits := 0
		for i, b := range primes {
			cr, code, err := postDrill(client, d.addr, b, "", fmt.Sprintf("%s-prime-%d", label, i))
			if err != nil || code != http.StatusOK {
				check(false, "%s prime probe %d: status %d err %v", label, i, code, err)
				continue
			}
			if cr.Cached {
				hits++
			}
		}
		return float64(hits) / float64(len(primes))
	}
	for i, b := range primes { // first pass populates the cache
		if _, code, err := postDrill(client, gen1.addr, b, "", fmt.Sprintf("prime-%d", i)); err != nil || code != http.StatusOK {
			gen1.dumpLog("gen1")
			fatal(fmt.Errorf("priming request %d failed: status %d err %v", i, code, err))
		}
	}
	rep.PreHitRate = probeHitRate(gen1, "pre")
	fmt.Printf("crash-drill: primed %d specs, pre-crash hit rate %.2f\n", len(primes), rep.PreHitRate)

	// Crash-window load: unique graphs (every request executes and is
	// journaled) with per-request idempotency keys, recorded for replay
	// verification. The SIGKILL lands while these are in flight.
	var (
		outMu    sync.Mutex
		outcomes []drillOutcome
		seq      atomic.Int64
	)
	loadCtx, stopLoad := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < cfg.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for loadCtx.Err() == nil {
				n := seq.Add(1)
				body, _ := json.Marshal(&serve.ColorRequest{
					Gen: fmt.Sprintf("rmat:9:8:%d", 5000+n), Alg: "baseline", TimeoutMS: 30_000,
				})
				o := drillOutcome{body: body, idemKey: fmt.Sprintf("drill-%d", n)}
				cr, code, err := postDrill(client, gen1.addr, body, o.idemKey, "drill-req-"+o.idemKey)
				switch {
				case err != nil:
					o.unknown = true // daemon died underneath the request
				case code == http.StatusOK:
					o.ok, o.numColors = true, cr.NumColors
				}
				outMu.Lock()
				outcomes = append(outcomes, o)
				outMu.Unlock()
				if o.unknown {
					return // the daemon is dead; one in-flight casualty per worker is the interesting case
				}
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	fmt.Println("crash-drill: SIGKILL generation 1 mid-load")
	gen1.kill()
	time.Sleep(200 * time.Millisecond) // let in-flight requests fail against the corpse
	stopLoad()
	wg.Wait()

	for _, o := range outcomes {
		rep.CrashSent++
		switch {
		case o.ok:
			rep.CrashOK++
		case o.unknown:
			rep.CrashUnknown++
		default:
			rep.CrashErrors++
		}
	}
	fmt.Printf("crash-drill: crash window: %d sent, %d ok, %d in flight at kill, %d errors\n",
		rep.CrashSent, rep.CrashOK, rep.CrashUnknown, rep.CrashErrors)
	check(rep.CrashOK > 0, "crash window completed no requests; drill did not exercise the journal")

	// ---- Generation 2: restart on the same journal ----
	addr2, err := freeAddr()
	if err != nil {
		fatal(err)
	}
	gen2, err := startDaemon(bin, addr2, filepath.Join(work, "gen2.log"), journalArgs...)
	if err != nil {
		fatal(err)
	}
	defer gen2.stop()
	if err := waitHealthy(client, gen2.addr, 15*time.Second); err != nil {
		gen2.dumpLog("gen2")
		fatal(err)
	}

	recStart := time.Now()
	var rz recoveryzState
	for {
		rz, err = fetchRecoveryz(client, gen2.addr)
		if err == nil && rz.Done {
			break
		}
		if time.Since(recStart) > 60*time.Second {
			check(false, "recovery did not finish within 60s (pending %d, completed %d)", rz.PendingRecovered, rz.ReplayCompleted)
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	rep.RecoveryWaitMS = time.Since(recStart).Milliseconds()
	rep.PendingRecovered = rz.PendingRecovered
	rep.ReplayCompleted = rz.ReplayCompleted
	rep.ReplayExpired = rz.ReplayExpired
	rep.ReplayFailed = rz.ReplayFailed
	rep.WarmedCache = rz.WarmedCache
	rep.WarmedIdem = rz.WarmedIdem
	rep.TornTails = rz.Replay.TornTails
	rep.CorruptSegments = rz.Replay.CorruptSegments
	fmt.Printf("crash-drill: generation 2 recovered in %dms: %d pending replayed (%d completed, %d expired, %d failed), warm cache %d, warm idem %d, %d torn tails\n",
		rep.RecoveryWaitMS, rz.PendingRecovered, rz.ReplayCompleted, rz.ReplayExpired, rz.ReplayFailed, rz.WarmedCache, rz.WarmedIdem, rep.TornTails)

	check(rz.Enabled, "generation 2 reports recovery disabled; journal flags not wired?")
	check(rz.ReplayFailed == 0, "replay_failed = %d, want 0", rz.ReplayFailed)
	settled := rz.ReplayCompleted + rz.ReplayExpired + rz.ReplayFailed
	check(settled >= rz.PendingRecovered,
		"accepted-job loss: %d pending recovered but only %d settled", rz.PendingRecovered, settled)
	check(rz.Replay.CorruptSegments == 0, "corrupt_segments = %d after a plain SIGKILL, want 0", rz.Replay.CorruptSegments)
	check(rz.WarmedCache > 0, "warm start loaded nothing into the result cache")

	// Probe the warm cache before the retry flood below churns the LRU:
	// the prime set must answer from the journal-warmed cache.
	rep.PostHitRate = probeHitRate(gen2, "post")
	check(rep.PostHitRate >= rep.PreHitRate-0.10,
		"post-crash hit rate %.2f below pre-crash %.2f - 0.10", rep.PostHitRate, rep.PreHitRate)
	fmt.Printf("crash-drill: post-crash hit rate %.2f (pre-crash %.2f)\n", rep.PostHitRate, rep.PreHitRate)

	// Retry every crash-window request with its original idempotency key:
	// none may fail, and ones that completed pre-crash must not change
	// their answer.
	for _, o := range outcomes {
		rep.RetriesIssued++
		cr, code, err := postDrill(client, gen2.addr, o.body, o.idemKey, "retry-"+o.idemKey)
		if err != nil || code != http.StatusOK {
			check(false, "retry %s: status %d err %v", o.idemKey, code, err)
			continue
		}
		rep.RetriesOK++
		if cr.IdempotentReplay {
			rep.IdemReplays++
		}
		if o.ok && cr.NumColors != o.numColors {
			rep.ResultDrift++
			check(false, "retry %s changed answer: %d colors pre-crash, %d after", o.idemKey, o.numColors, cr.NumColors)
		}
	}
	check(rep.RetriesOK == rep.RetriesIssued, "retries: %d/%d succeeded", rep.RetriesOK, rep.RetriesIssued)
	check(rep.IdemReplays > 0, "no retry was served as an idempotent replay; idempotency map did not survive the crash")
	fmt.Printf("crash-drill: retried %d requests: %d ok, %d idempotent replays, %d answer drift\n",
		rep.RetriesIssued, rep.RetriesOK, rep.IdemReplays, rep.ResultDrift)
	gen2.stop()

	// ---- A/B: journal overhead ----
	// Unique-seed requests so every one executes; same binary, same mix,
	// journal on (fresh dir) vs off. The off run is the pre-journal serving
	// baseline regime.
	abRun := func(label string, extra ...string) float64 {
		addr, err := freeAddr()
		if err != nil {
			fatal(err)
		}
		args := append([]string{"-devices", fmt.Sprint(cfg.devices), "-shed", "1"}, extra...)
		d, err := startDaemon(bin, addr, filepath.Join(work, label+".log"), args...)
		if err != nil {
			fatal(err)
		}
		defer d.stop()
		if err := waitHealthy(client, d.addr, 15*time.Second); err != nil {
			d.dumpLog(label)
			fatal(err)
		}
		mix, err := parseMix("rmat:8:8:1=1")
		if err != nil {
			fatal(err)
		}
		gen := newReqGen(mix, 1.0, "baseline", "static", "normal", 30_000, 7)
		sum := runClosed(client, d.addr, gen, cfg.conc, 300, 0)
		fmt.Printf("crash-drill: %s throughput %.1f req/s (%d ok / %d sent)\n", label, sum.Throughput, sum.OK, sum.Requests)
		return sum.Throughput
	}
	// The gate reads the median overhead of overheadPairs on/off pairs,
	// each side run first in turn: machine-level drift across a multi-second
	// window is the same order as the effect being measured, and a pair's
	// two runs share most of it.
	var on, off, frac [overheadPairs]float64
	for i := range frac {
		onRun := func() float64 {
			return abRun(fmt.Sprintf("journal-on-%d", i),
				"-journal-dir", filepath.Join(work, fmt.Sprintf("wal-ab-%d", i)), "-journal-fsync", "batch")
		}
		offRun := func() float64 { return abRun(fmt.Sprintf("journal-off-%d", i)) }
		if i%2 == 0 {
			on[i], off[i] = onRun(), offRun()
		} else {
			off[i], on[i] = offRun(), onRun()
		}
		if off[i] > 0 {
			frac[i] = 1 - on[i]/off[i]
		}
		fmt.Printf("crash-drill: pair %d overhead %.1f%%\n", i, frac[i]*100)
	}
	rep.JournalOnRPS, rep.JournalOffRPS = median(on[:]), median(off[:])
	rep.OverheadFrac = max(median(frac[:]), 0)
	check(rep.OverheadFrac <= cfg.overheadGate,
		"journal overhead %.1f%% exceeds gate %.1f%% (on %.1f vs off %.1f req/s)",
		rep.OverheadFrac*100, cfg.overheadGate*100, rep.JournalOnRPS, rep.JournalOffRPS)

	rep.Failures = failures
	rep.Pass = len(failures) == 0
	if cfg.outPath != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(cfg.outPath, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("crash-drill: wrote %s\n", cfg.outPath)
	}
	if !rep.Pass {
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "crash-drill: FAIL: %s\n", f)
		}
		return 1
	}
	fmt.Printf("crash-drill: PASS (0 lost of %d recovered, hit rate %.2f -> %.2f, overhead %.1f%%)\n",
		rep.PendingRecovered, rep.PreHitRate, rep.PostHitRate, rep.OverheadFrac*100)
	return 0
}
