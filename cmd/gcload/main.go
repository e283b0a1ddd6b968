// Command gcload drives a gcolord daemon or coordinator with a
// configurable request mix and reports throughput and latency. One fault
// drill rides along: -crash-drill. Chained delta streams are measured by
// bench/'s delta workload, which checks every answer, and the
// self-healing soak is a Go test (TestChaosSoak in internal/serve).
//
// Closed loop (default): -conc workers each keep one request in flight.
// Open loop: requests fire at a fixed -rate regardless of completions,
// which is what pushes the daemon into its shedding regime.
//
// Usage:
//
//	gcload -addr http://localhost:8421 -conc 8 -duration 10s
//	gcload -mode open -rate 200 -duration 5s -mix "grid:40:40=3,rmat:9:8:1=1"
//	gcload -baseline -conc 8 -n 200 -json load.json
//	gcload -wire binary -conc 8 -duration 10s  # binary CSR frames, options in query
//	gcload -crash-drill -json BENCH_PR6.json   # kill -9 / restart / replay drill
//
// The mix is spec=weight pairs (specs as in serve.ParseGraphSpec); -unique
// rewrites the seed of that fraction of requests so they miss every cache,
// controlling the duplicate share of the workload. With -baseline the tool
// first measures serial one-at-a-time no-cache throughput on the same mix
// (the cmd/gcolor regime) and reports the serving speedup over it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcolor/internal/graph"
	"gcolor/internal/serve"
)

type mixEntry struct {
	spec   string
	weight int
}

type summary struct {
	Mode        string                  `json:"mode"`
	Concurrency int                     `json:"concurrency,omitempty"`
	RatePerSec  float64                 `json:"rate_per_sec,omitempty"`
	DurationSec float64                 `json:"duration_sec"`
	Requests    int64                   `json:"requests"`
	OK          int64                   `json:"ok"`
	Cached      int64                   `json:"cached"`
	Coalesced   int64                   `json:"coalesced"`
	Errors      map[string]int64        `json:"errors,omitempty"`
	Retried     int64                   `json:"retried,omitempty"`    // requests that needed >= 1 retry
	Retries     int64                   `json:"retries,omitempty"`    // total extra attempts
	BackoffMS   int64                   `json:"backoff_ms,omitempty"` // total time slept between attempts
	Throughput  float64                 `json:"throughput_rps"`
	LatencyUS   map[string]int64        `json:"latency_us"`
	Endpoints   map[string]endpointStat `json:"endpoints,omitempty"`
	Server      map[string]float64      `json:"server,omitempty"`
	BaselineRPS float64                 `json:"baseline_rps,omitempty"`
	Speedup     float64                 `json:"speedup,omitempty"`
}

// endpointStat is the per-endpoint latency breakdown gcload reports when
// the target is a cluster coordinator: one row per worker that served
// whole-graph jobs, plus a "scatter" row for fan-out jobs (whose latency
// is the slowest shard, not any single worker) and a "coordinator" row
// for requests answered locally (cache hits, idempotent replays).
type endpointStat struct {
	Requests int64 `json:"requests"`
	P50US    int64 `json:"p50_us"`
	P99US    int64 `json:"p99_us"`
	MeanUS   int64 `json:"mean_us"`
	MaxUS    int64 `json:"max_us"`
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8421", "gcolord base URL")
		mode     = flag.String("mode", "closed", "load mode: closed (fixed concurrency) or open (fixed rate)")
		conc     = flag.Int("conc", 8, "closed-loop concurrent workers")
		rate     = flag.Float64("rate", 100, "open-loop request rate (req/s)")
		duration = flag.Duration("duration", 10*time.Second, "run length (ignored when -n > 0)")
		count    = flag.Int("n", 0, "total request count (0 = run for -duration)")
		mixFlag  = flag.String("mix", "grid:40:40=4,gnm:2000:8000:1=3,rmat:9:8:1=3", "workload mix: spec=weight pairs, comma separated")
		unique   = flag.Float64("unique", 0.2, "fraction of requests rewritten to a unique seed (cache-busting)")
		alg      = flag.String("alg", "baseline", "algorithm for every request")
		policy   = flag.String("policy", "static", "scheduling policy for every request")
		priority = flag.String("priority", "normal", "priority for every request")
		wire     = flag.String("wire", "json", "request wire format: json (ColorRequest body) or binary (application/x-gcolor-csr CSR frame, options in the query string; graphs are generated client-side)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request timeout")

		retries   = flag.Int("retries", 3, "retry attempts after a retryable failure (transport, 429, 5xx); 0 disables")
		retryBase = flag.Duration("retry-base", 100*time.Millisecond, "full-jitter backoff base delay")
		retryCap  = flag.Duration("retry-cap", 5*time.Second, "backoff delay ceiling (also caps honored Retry-After hints)")

		seed     = flag.Int64("seed", 1, "workload RNG seed")
		baseline = flag.Bool("baseline", false, "first measure serial no-cache throughput on the same mix and report speedup")
		jsonOut  = flag.String("json", "", "also write the summary as JSON to this file")

		crashDrill        = flag.Bool("crash-drill", false, "run the crash-recovery drill: start gcolord with a journal, SIGKILL it mid-load, restart it, and assert zero accepted-job loss and a warm cache (ignores -addr)")
		drillGcolord      = flag.String("drill-gcolord", "", "prebuilt gcolord binary for -crash-drill (empty = `go build gcolor/cmd/gcolord` from the module root)")
		drillBuildFlags   = flag.String("drill-buildflags", "", "extra go build flags when -crash-drill builds gcolord, e.g. -race")
		drillOverheadGate = flag.Float64("drill-overhead-gate", 0.05, "max tolerated journal throughput overhead fraction in the -crash-drill A/B")
		drillDevices      = flag.Int("drill-devices", 2, "-crash-drill daemon pool size")
	)
	flag.Parse()

	if *crashDrill {
		out := *jsonOut
		if out == "" {
			out = "BENCH_PR6.json"
		}
		os.Exit(runCrashDrill(crashDrillConfig{
			gcolordBin:   *drillGcolord,
			buildFlags:   *drillBuildFlags,
			devices:      *drillDevices,
			conc:         *conc,
			overheadGate: *drillOverheadGate,
			outPath:      out,
		}))
	}

	mix, err := parseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}
	if *mode != "closed" && *mode != "open" {
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if *retries > 0 {
		retryPol = retryPolicy{max: *retries, base: *retryBase, cap: *retryCap}
		if retryPol.base <= 0 {
			retryPol.base = 100 * time.Millisecond
		}
		if retryPol.cap < retryPol.base {
			retryPol.cap = retryPol.base
		}
	}
	client := newLoadClient(*timeout+5*time.Second, *conc)
	if err := waitHealthy(client, *addr, 10*time.Second); err != nil {
		fatal(err)
	}

	sum := summary{Mode: *mode, Errors: map[string]int64{}}
	gen := newReqGen(mix, *unique, *alg, *policy, *priority, timeout.Milliseconds(), *seed)
	switch *wire {
	case "json":
	case "binary":
		gen.useBinaryWire()
	default:
		fatal(fmt.Errorf("unknown wire format %q (json | binary)", *wire))
	}

	if *baseline {
		n := *count
		if n == 0 {
			n = 50
		}
		if n > 200 {
			n = 200
		}
		base := runClosed(client, *addr, gen.baselineVariant(), 1, n, 0)
		sum.BaselineRPS = base.Throughput
		fmt.Printf("baseline: %d serial no-cache requests, %.1f req/s (p50 %s)\n",
			base.Requests, base.Throughput, us(base.LatencyUS["p50"]))
	}

	var run summary
	switch *mode {
	case "closed":
		run = runClosed(client, *addr, gen, *conc, *count, *duration)
		run.Concurrency = *conc
	case "open":
		run = runOpen(client, *addr, gen, *rate, *count, *duration)
		run.RatePerSec = *rate
	}
	run.Mode, run.BaselineRPS = sum.Mode, sum.BaselineRPS
	if run.BaselineRPS > 0 {
		run.Speedup = run.Throughput / run.BaselineRPS
	}
	run.Server = fetchServerMetrics(client, *addr)
	printSummary(&run)

	if *jsonOut != "" {
		b, err := json.MarshalIndent(&run, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if run.Requests > 0 && run.OK == 0 {
		os.Exit(1)
	}
}

// newLoadClient builds the single pooled HTTP client every gcload mode
// shares for the whole run. The default transport keeps only two idle
// connections per host, so a -conc 8 closed loop would churn TCP dials
// (and, against a coordinator, measure handshakes instead of the fleet);
// sizing the keep-alive pool to the worker count means every in-flight
// lane holds a warm connection.
func newLoadClient(timeout time.Duration, conc int) *http.Client {
	if conc < 4 {
		conc = 4
	}
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        4 * conc,
			MaxIdleConnsPerHost: conc,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// loadReq is one prepared request: the body plus the wire framing it
// needs. A zero contentType means the JSON ColorRequest wire.
type loadReq struct {
	body        []byte
	contentType string
	query       string // binary wire only: options as query parameters
}

// reqGen produces the request stream: weighted spec choice plus
// cache-busting unique-seed rewrites. It is safe for concurrent use.
type reqGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	mix      []mixEntry
	total    int
	unique   float64
	uniqueID atomic.Int64
	body     serve.ColorRequest

	// Binary wire mode: requests ship graph.EncodeWireCSR frames with
	// options in the query string instead of JSON envelopes. Frames are
	// generated client-side and memoized per spec.
	binary   bool
	binQuery string
	frames   map[string][]byte
}

func newReqGen(mix []mixEntry, unique float64, alg, policy, priority string, timeoutMS int64, seed int64) *reqGen {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	return &reqGen{
		rng: rand.New(rand.NewSource(seed)), mix: mix, total: total, unique: unique,
		body: serve.ColorRequest{Alg: alg, Policy: policy, Priority: priority, TimeoutMS: timeoutMS},
	}
}

// baselineVariant returns a generator over the same mix whose requests
// bypass cache and coalescing — the serial cmd/gcolor regime.
func (g *reqGen) baselineVariant() *reqGen {
	b := newReqGen(g.mix, g.unique, g.body.Alg, g.body.Policy, g.body.Priority, g.body.TimeoutMS, g.rng.Int63())
	b.body.NoCache = true
	if g.binary {
		b.useBinaryWire()
	}
	return b
}

// useBinaryWire switches the generator to the binary CSR wire format:
// every request body becomes an application/x-gcolor-csr frame and the
// option fields move into a query string built once here.
func (g *reqGen) useBinaryWire() {
	g.binary = true
	g.frames = make(map[string][]byte)
	q := url.Values{}
	for k, v := range map[string]string{
		"alg": g.body.Alg, "policy": g.body.Policy, "priority": g.body.Priority,
	} {
		if v != "" {
			q.Set(k, v)
		}
	}
	if g.body.TimeoutMS > 0 {
		q.Set("timeout_ms", strconv.FormatInt(g.body.TimeoutMS, 10))
	}
	if g.body.NoCache {
		q.Set("no_cache", "true")
	}
	g.binQuery = q.Encode()
}

// next returns one prepared request for the configured wire format.
func (g *reqGen) next() loadReq {
	g.mu.Lock()
	pick := g.rng.Intn(g.total)
	uniq := g.rng.Float64() < g.unique
	g.mu.Unlock()
	spec := ""
	for _, m := range g.mix {
		if pick < m.weight {
			spec = m.spec
			break
		}
		pick -= m.weight
	}
	if uniq {
		spec = reseedSpec(spec, g.uniqueID.Add(1))
	}
	if g.binary {
		return loadReq{body: g.frameFor(spec), contentType: serve.ContentTypeBinaryCSR, query: g.binQuery}
	}
	body := g.body
	body.Gen = spec
	b, _ := json.Marshal(&body)
	return loadReq{body: b}
}

// frameFor returns the memoized binary CSR frame for spec, generating it
// on first use. Cache-busting unique seeds make the spec space unbounded,
// so the memo resets past a residency cap instead of growing forever.
func (g *reqGen) frameFor(spec string) []byte {
	g.mu.Lock()
	if f, ok := g.frames[spec]; ok {
		g.mu.Unlock()
		return f
	}
	g.mu.Unlock()
	gr, err := serve.ParseGraphSpec(spec)
	if err != nil {
		fatal(fmt.Errorf("generate %q: %v", spec, err))
	}
	f := graph.EncodeWireCSR(gr)
	g.mu.Lock()
	if len(g.frames) >= 4096 {
		g.frames = make(map[string][]byte)
	}
	g.frames[spec] = f
	g.mu.Unlock()
	return f
}

// reseedSpec swaps the trailing seed field of a seeded spec for id, making
// the graph (and so its fingerprint) unique. Specs without a seed field
// (grid, complete, ...) are returned unchanged.
func reseedSpec(spec string, id int64) string {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "rmat", "gnm", "ba": // kind:a:b[:seed]
		if len(parts) >= 4 {
			parts = parts[:3]
		}
	case "ws": // ws:n:k:beta[:seed]
		if len(parts) >= 5 {
			parts = parts[:4]
		}
	default:
		return spec
	}
	return strings.Join(parts, ":") + ":" + strconv.FormatInt(1000+id, 10)
}

type reqResult struct {
	lat        time.Duration
	ok         bool
	kind       string
	status     int           // HTTP status of the last attempt (0 = transport failure)
	retryAfter time.Duration // server's Retry-After hint, when it sent one
	cached     bool
	coalesced  bool
	worker     string // cluster only: worker that served a routed job
	scattered  bool   // cluster only: job was scatter-gathered across workers

	retries int           // extra attempts this request needed
	backoff time.Duration // total time slept between attempts
}

// retryPolicy is the client-side backoff discipline: full-jitter
// exponential delays, overridden upward by the server's Retry-After hint
// when it sends one (the server knows its queue; the client only knows
// its attempt count). Zero max means single-attempt (the pre-backoff
// behaviour, kept for the drills that manage retries themselves).
type retryPolicy struct {
	max  int           // retry attempts after the first try
	base time.Duration // first-retry delay ceiling
	cap  time.Duration // per-delay ceiling
}

// retryPol is set once from flags before any load runs.
var retryPol retryPolicy

// retryable reports whether another attempt could succeed: transport
// failures, overload rejections, and server-side errors. 4xx other than
// 429 would fail identically every time.
func (r reqResult) retryable() bool {
	return r.status == 0 || r.status == http.StatusTooManyRequests || r.status >= 500
}

// delay computes the sleep before retry #attempt (0-based): full jitter
// over an exponentially growing window, floored by the server's hint.
func (p retryPolicy) delay(attempt int, hint time.Duration) time.Duration {
	window := p.base << attempt
	if window > p.cap || window <= 0 {
		window = p.cap
	}
	d := time.Duration(rand.Int63n(int64(window) + 1))
	if hint > 0 {
		if hint > p.cap {
			hint = p.cap
		}
		if d < hint {
			d = hint
		}
	}
	return d
}

// doWithRetry runs one logical request through the retry policy. The
// reported latency is the last attempt's alone; the time spent backing
// off is accounted separately so overload windows show up as backoff,
// not as phantom tail latency.
func doWithRetry(client *http.Client, addr string, lr loadReq) reqResult {
	var backoff time.Duration
	for attempt := 0; ; attempt++ {
		r := doRequest(client, addr, lr)
		r.retries, r.backoff = attempt, backoff
		if r.ok || attempt >= retryPol.max || !r.retryable() {
			return r
		}
		d := retryPol.delay(attempt, r.retryAfter)
		time.Sleep(d)
		backoff += d
	}
}

// endpoint buckets a successful response for the per-endpoint report.
// Empty means the target is a plain gcolord (no Worker/Scattered fields),
// and the report is suppressed entirely.
func (r reqResult) endpoint() string {
	switch {
	case r.scattered:
		return "scatter"
	case r.worker != "":
		return r.worker
	case r.cached:
		return "coordinator"
	}
	return ""
}

func doRequest(client *http.Client, addr string, lr loadReq) reqResult {
	url := addr + "/color"
	if lr.query != "" {
		url += "?" + lr.query
	}
	ct := lr.contentType
	if ct == "" {
		ct = "application/json"
	}
	start := time.Now()
	resp, err := client.Post(url, ct, bytes.NewReader(lr.body))
	r := reqResult{lat: time.Since(start)}
	if err != nil {
		r.kind = "transport"
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var cr serve.ColorResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			r.kind = "decode"
			return r
		}
		r.lat = time.Since(start)
		r.ok, r.cached, r.coalesced = true, cr.Cached, cr.Coalesced
		r.worker, r.scattered = cr.Worker, cr.Scattered
		return r
	}
	var er struct {
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Kind == "" {
		er.Kind = fmt.Sprintf("http_%d", resp.StatusCode)
	}
	r.lat = time.Since(start)
	r.kind = er.Kind
	r.status = resp.StatusCode
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			r.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return r
}

// runClosed keeps conc requests in flight until n requests have been sent
// (n > 0) or d has elapsed.
func runClosed(client *http.Client, addr string, gen *reqGen, conc, n int, d time.Duration) summary {
	var sent atomic.Int64
	results := make(chan reqResult, 1024)
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n > 0 {
					if sent.Add(1) > int64(n) {
						return
					}
				} else if !time.Now().Before(stop) {
					return
				}
				results <- doWithRetry(client, addr, gen.next())
			}
		}()
	}
	done := make(chan struct{})
	var sum summary
	var lats []time.Duration
	eps := map[string][]time.Duration{}
	go func() {
		defer close(done)
		for r := range results {
			collect(&sum, &lats, eps, r)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	close(results)
	<-done
	finalize(&sum, lats, eps, elapsed)
	return sum
}

// runOpen fires requests at a fixed rate, never waiting for completions
// (in-flight count is unbounded up to the daemon's admission control).
func runOpen(client *http.Client, addr string, gen *reqGen, rate float64, n int, d time.Duration) summary {
	if rate <= 0 {
		fatal(fmt.Errorf("open-loop rate must be > 0"))
	}
	interval := time.Duration(float64(time.Second) / rate)
	results := make(chan reqResult, 4096)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	fired := 0
	for now := range tick.C {
		if n > 0 && fired >= n {
			break
		}
		if n == 0 && now.After(stop) {
			break
		}
		fired++
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- doWithRetry(client, addr, gen.next())
		}()
	}
	done := make(chan struct{})
	var sum summary
	var lats []time.Duration
	eps := map[string][]time.Duration{}
	go func() {
		defer close(done)
		for r := range results {
			collect(&sum, &lats, eps, r)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	close(results)
	<-done
	finalize(&sum, lats, eps, elapsed)
	return sum
}

func collect(sum *summary, lats *[]time.Duration, eps map[string][]time.Duration, r reqResult) {
	sum.Requests++
	if r.retries > 0 {
		sum.Retried++
		sum.Retries += int64(r.retries)
		sum.BackoffMS += r.backoff.Milliseconds()
	}
	if r.ok {
		sum.OK++
		if r.cached {
			sum.Cached++
		}
		if r.coalesced {
			sum.Coalesced++
		}
		*lats = append(*lats, r.lat)
		if ep := r.endpoint(); ep != "" {
			eps[ep] = append(eps[ep], r.lat)
		}
		return
	}
	if sum.Errors == nil {
		sum.Errors = map[string]int64{}
	}
	sum.Errors[r.kind]++
}

func finalize(sum *summary, lats []time.Duration, eps map[string][]time.Duration, elapsed time.Duration) {
	sum.DurationSec = elapsed.Seconds()
	if elapsed > 0 {
		sum.Throughput = float64(sum.OK) / elapsed.Seconds()
	}
	sum.LatencyUS = map[string]int64{}
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var total time.Duration
	for _, l := range lats {
		total += l
	}
	pct := func(p float64) int64 {
		i := int(p * float64(len(lats)-1))
		return lats[i].Microseconds()
	}
	sum.LatencyUS["p50"] = pct(0.50)
	sum.LatencyUS["p90"] = pct(0.90)
	sum.LatencyUS["p99"] = pct(0.99)
	sum.LatencyUS["mean"] = (total / time.Duration(len(lats))).Microseconds()
	sum.LatencyUS["max"] = lats[len(lats)-1].Microseconds()

	// The per-endpoint breakdown only exists against a cluster coordinator:
	// a plain gcolord never stamps Worker/Scattered, so the sole possible
	// bucket is "coordinator" (cache hits) and the report is suppressed.
	onlyLocal := true
	for k := range eps {
		if k != "coordinator" {
			onlyLocal = false
			break
		}
	}
	if len(eps) == 0 || onlyLocal {
		return
	}
	sum.Endpoints = make(map[string]endpointStat, len(eps))
	for ep, el := range eps {
		sort.Slice(el, func(i, j int) bool { return el[i] < el[j] })
		var t time.Duration
		for _, l := range el {
			t += l
		}
		sum.Endpoints[ep] = endpointStat{
			Requests: int64(len(el)),
			P50US:    el[int(0.50*float64(len(el)-1))].Microseconds(),
			P99US:    el[int(0.99*float64(len(el)-1))].Microseconds(),
			MeanUS:   (t / time.Duration(len(el))).Microseconds(),
			MaxUS:    el[len(el)-1].Microseconds(),
		}
	}
}

// fetchServerMetrics scrapes the daemon's /metricsz into a flat map.
func fetchServerMetrics(client *http.Client, addr string) map[string]float64 {
	resp, err := client.Get(addr + "/metricsz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out
}

func parseMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec, wstr, found := strings.Cut(part, "=")
		w := 1
		if found {
			var err error
			w, err = strconv.Atoi(wstr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("gcload: bad mix weight in %q", part)
			}
		}
		if _, err := serve.ParseGraphSpec(spec); err != nil {
			return nil, fmt.Errorf("gcload: bad mix spec %q: %v", spec, err)
		}
		mix = append(mix, mixEntry{spec: spec, weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("gcload: empty mix")
	}
	return mix, nil
}

func waitHealthy(client *http.Client, addr string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gcload: %s/healthz not healthy after %v (last error: %v)", addr, d, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func us(v int64) string { return (time.Duration(v) * time.Microsecond).String() }

// trimScheme shortens endpoint keys for the console report.
func trimScheme(s string) string {
	s = strings.TrimPrefix(s, "http://")
	return strings.TrimPrefix(s, "https://")
}

func printSummary(s *summary) {
	fmt.Printf("\n%-22s %s\n", "mode", s.Mode)
	fmt.Printf("%-22s %.2fs\n", "duration", s.DurationSec)
	fmt.Printf("%-22s %d (%d ok, %d cached, %d coalesced)\n", "requests", s.Requests, s.OK, s.Cached, s.Coalesced)
	if len(s.Errors) > 0 {
		keys := make([]string, 0, len(s.Errors))
		for k := range s.Errors {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-22s %d\n", "errors."+k, s.Errors[k])
		}
	}
	if s.Retried > 0 {
		fmt.Printf("%-22s %d requests retried (%d extra attempts, %s backing off)\n",
			"backoff", s.Retried, s.Retries, time.Duration(s.BackoffMS)*time.Millisecond)
	}
	fmt.Printf("%-22s %.1f req/s\n", "throughput", s.Throughput)
	for _, q := range []string{"p50", "p90", "p99", "mean", "max"} {
		if v, ok := s.LatencyUS[q]; ok {
			fmt.Printf("%-22s %s\n", "latency."+q, us(v))
		}
	}
	if len(s.Endpoints) > 0 {
		eps := make([]string, 0, len(s.Endpoints))
		for ep := range s.Endpoints {
			eps = append(eps, ep)
		}
		sort.Strings(eps)
		for _, ep := range eps {
			st := s.Endpoints[ep]
			fmt.Printf("%-22s %d reqs  p50 %s  p99 %s  mean %s\n",
				"endpoint."+trimScheme(ep), st.Requests, us(st.P50US), us(st.P99US), us(st.MeanUS))
		}
	}
	for _, k := range []string{
		"cache_hit_rate", "shed_total", "queue_full_total", "device_utilization",
		"coalesced_total", "deadline_expired_total", "shed_expired",
		"hedges_total", "hedge_wins_total", "hedge_losses_total",
		"quarantines_total", "readmitted_total", "probes_total", "quarantined",
		"cluster_workers", "cluster_alive_workers", "cluster_jobs_total",
		"cluster_routed_total", "cluster_scattered_total", "cluster_failed_total",
		"cluster_route_failovers_total", "cluster_redispatches_total",
		"cluster_quarantines_total", "cluster_cache_hits_total",
	} {
		if v, ok := s.Server[k]; ok {
			fmt.Printf("%-22s %g\n", "server."+k, v)
		}
	}
	// Per-device self-healing lines, in device order.
	for i := 0; ; i++ {
		h, ok := s.Server[fmt.Sprintf("device_health_%d", i)]
		if !ok {
			break
		}
		b := s.Server[fmt.Sprintf("device_breaker_%d", i)]
		fmt.Printf("%-22s %.3f (breaker %s)\n", fmt.Sprintf("server.device_%d", i), h, breakerName(int(b)))
	}
	if s.BaselineRPS > 0 {
		fmt.Printf("%-22s %.1f req/s\n", "baseline", s.BaselineRPS)
		fmt.Printf("%-22s %.2fx\n", "speedup", s.Speedup)
	}
}

func breakerName(v int) string {
	switch v {
	case 0:
		return "closed"
	case 1:
		return "open"
	case 2:
		return "half-open"
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gcload: %v\n", err)
	os.Exit(2)
}
