// Command bench is the repository's serving benchmark. It runs one named
// workload against in-process serving stacks on loopback HTTP, with two
// closed-loop client connections, checks every answer, and prints every
// metric by name with its unit and sample count. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured over HTTP.
// With -trace 1 they are the per-layer ones: the same request sequence is
// driven in-process through the layers' public functions with a span
// around each call, and a sample of its colorings is replayed through the
// lower layers. Spans are written to .bench_build/trace-<workload>-<seed>.json.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one named traffic mix.
type workload struct {
	name    string
	journal bool // stack journals with batch fsync
	fleet   bool // coordinator over two workers instead of one server
	// prefix is the number of requests per connection whose answers the
	// deterministic metrics (sim_cycles, colors_used) average; a run that
	// has not sent them by the deadline sends the rest untimed.
	prefix int
	// replay bounds the executed colorings (or delta steps) the traced run
	// replays through the lower layers.
	replay int
	inputs func(seed int64) inputs
}

var workloads = []*workload{
	{name: "cold", prefix: 64, replay: 16, inputs: func(s int64) inputs { return newColdInputs(s, 24) }},
	{name: "hot", journal: true, prefix: 1000, replay: 24, inputs: func(s int64) inputs { return newHotInputs(s) }},
	{name: "delta", journal: true, prefix: 48, replay: 24, inputs: func(s int64) inputs { return newDeltaInputs(s) }},
	{name: "fleet", journal: true, fleet: true, prefix: 384, replay: 16, inputs: func(s int64) inputs { return newFleetInputs(s) }},
}

// devices is every stack's total device count; a fleet splits it over two
// workers.
const devices = 4

func (w *workload) devicesPerServer() int {
	if w.fleet {
		return devices / 2
	}
	return devices
}

// instance is one set-up stack with its warm inputs.
type instance struct {
	st    *stack
	in    inputs
	conns []*httpConn
	warm  []*answer
	setup time.Duration
}

// setup builds the stack, opens its journal, generates the inputs and
// warms caches or resident bases over HTTP; all of it counts in setup_s.
func (w *workload) setup(seed int64, root string) (*instance, error) {
	t0 := time.Now()
	dir := ""
	if w.journal {
		var err error
		if dir, err = scratchDir(root, w.name); err != nil {
			return nil, err
		}
	}
	var st *stack
	var err error
	if w.fleet {
		st, err = newFleetStack(dir)
	} else {
		st, err = newServeStack(dir)
	}
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	inst := &instance{st: st, in: w.inputs(seed), conns: newHTTPConns()}
	if inst.warm, err = warmUp(inst.in, httpSender(st.url, inst.conns)); err != nil {
		inst.close()
		return nil, err
	}
	inst.setup = time.Since(t0)
	return inst, nil
}

func (inst *instance) close() error {
	closeHTTPConns(inst.conns)
	return inst.st.close()
}

func (inst *instance) http() sender { return httpSender(inst.st.url, inst.conns) }

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	samples    int
}

type report struct {
	attempted, failed int
	violations        []string
	metrics           []metric
	notes             []string
}

func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
}

// check verifies a run's answers and counts its failures into r.
func check(inst *instance, rr *runResult, r *report) {
	ck := newChecker()
	ck.answers(inst.warm, rr)
	if din, ok := inst.in.(*deltaInputs); ok {
		ck.chains(din, inst.warm, rr)
	}
	for c := range rr.answers {
		for _, a := range rr.answers[c] {
			r.attempted++
			if a.err != nil {
				r.failed++
				r.violations = append(r.violations, fmt.Sprintf("%s: %v", a.key, a.err))
			}
		}
	}
	r.failed += len(ck.violations)
	r.violations = append(r.violations, ck.violations...)
}

// prefixAnswers are the answers the deterministic metrics average: each
// connection's first prefix answers, and for delta chains their heads.
func prefixAnswers(w *workload, inst *instance, rr *runResult) []*answer {
	var out []*answer
	for _, a := range inst.warm {
		if a.chain >= 0 {
			out = append(out, a)
		}
	}
	for c := range rr.answers {
		for _, a := range rr.answers[c] {
			if a.seq < w.prefix && a.err == nil {
				out = append(out, a)
			}
		}
	}
	return out
}

// digest fingerprints the deterministic part of a run: every prefix
// answer's cycles, palette and colors. Two runs of one seed must agree.
func digest(as []*answer) uint64 {
	sorted := append([]*answer(nil), as...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].conn != sorted[j].conn {
			return sorted[i].conn < sorted[j].conn
		}
		return sorted[i].seq < sorted[j].seq
	})
	h := uint64(14695981039346656037)
	for _, a := range sorted {
		for _, v := range []uint64{uint64(a.res.Cycles), uint64(a.res.NumColors), a.hash} {
			h ^= v
			h *= 1099511628211
		}
	}
	return h
}

// slices is the number of equal parts of the measured window whose
// per-part throughputs throughput_rps takes the median of, so a transient
// stall of the host moves it less than a whole-window mean.
const slices = 10

// sliceThroughputs returns the successful completions per second in each
// of the window's slices, by completion time.
func sliceThroughputs(rr *runResult) []float64 {
	counts := make([]float64, slices)
	width := rr.window / slices
	for c := range rr.answers {
		for _, a := range rr.answers[c] {
			if !a.timed || a.err != nil {
				continue
			}
			i := int(a.done / width)
			if i >= slices {
				i = slices - 1
			}
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return counts
}

// timedLatencies returns the latencies (ms) of successful timed answers.
func timedLatencies(rr *runResult) []float64 {
	var lats []float64
	for c := range rr.answers {
		for _, a := range rr.answers[c] {
			if a.timed && a.err == nil {
				lats = append(lats, millis(a.lat))
			}
		}
	}
	return lats
}

// throughput is the median of the slices' successful completions per
// second.
func throughput(rr *runResult) float64 { return median(sliceThroughputs(rr)) }

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS (mapped minus released), sampled every 5ms.
type memSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() {
		metrics.Read(samples)
		if v := samples[0].Value.Uint64() - samples[1].Value.Uint64(); v > m.peak {
			m.peak = v
		}
	}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *memSampler) finish() float64 {
	close(m.stop)
	m.done.Wait()
	return float64(m.peak) / (1 << 20)
}

// setups is how many times an untraced run builds its stack; setup_s is
// the median, and the last stack is the one measured.
const setups = 3

// outDir holds the journals, span files and build of a run, relative to
// the repository root the benchmark runs from.
const outDir = ".bench_build"

// untraced is the -trace 0 run: set up several times, then measure the
// last stack over HTTP.
func untraced(w *workload, seed int64, dur time.Duration, root string) (*report, error) {
	r := &report{}
	var times []float64
	var inst *instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if inst, err = w.setup(seed, root); err != nil {
			return nil, err
		}
		times = append(times, inst.setup.Seconds())
	}
	runtime.GC()
	debug.FreeOSMemory()
	before := countersOf(inst.st)
	mem := startMemSampler()
	rr := closedLoop(inst.in, inst.http(), inst.warm, w.prefix, dur)
	peak := mem.finish()
	after := countersOf(inst.st)
	r.notes = append(r.notes, fmt.Sprintf("during the run: %d hedges, %d batched jobs, %d refused",
		after["hedges"]-before["hedges"], after["batched"]-before["batched"], after["refused"]-before["refused"]))
	if err := inst.close(); err != nil {
		return nil, err
	}
	check(inst, rr, r)

	lats := timedLatencies(rr)
	var cycles, palette []float64
	pre := prefixAnswers(w, inst, rr)
	for _, a := range pre {
		cycles = append(cycles, float64(a.res.Cycles))
		palette = append(palette, float64(a.res.NumColors))
	}
	r.notes = append(r.notes, fmt.Sprintf("throughput by slice: %.4g", sliceThroughputs(rr)))
	r.add("throughput_rps", "req/s", throughput(rr), len(lats))
	r.add("latency_p50_ms", "ms", quantile(lats, 0.5), len(lats))
	r.add("latency_p90_ms", "ms", quantile(lats, 0.9), len(lats))
	if len(lats) >= 1000 {
		r.add("latency_p99_ms", "ms", quantile(lats, 0.99), len(lats))
	} else {
		r.notes = append(r.notes, fmt.Sprintf("latency_p99_ms not reported: %d samples < 1000", len(lats)))
	}
	r.add("error_rate", "fraction", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	r.add("sim_cycles", "cycles", mean(cycles), len(cycles))
	r.add("colors_used", "colors", mean(palette), len(palette))
	r.add("setup_s", "s", median(times), len(times))
	r.add("mem_peak_mb", "MB", peak, 1)
	batched := 0
	for _, a := range pre {
		if a.res.Batched {
			batched++
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("prefix digest %016x over %d answers (%d batched)", digest(pre), len(pre), batched))
	return r, nil
}

// endToEnd names the metrics -trace 0 puts in its result line: the ones
// that are never zero on a correct build and present on every workload.
var endToEnd = []string{"throughput_rps", "latency_p50_ms", "latency_p90_ms", "sim_cycles", "colors_used", "setup_s", "mem_peak_mb"}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold, hot, delta or fleet")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	traceOn := flag.Int("trace", 0, "1 runs the traced in-process pass and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "bench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceOn)
		os.Exit(2)
	}
	root, err := filepath.Abs(filepath.Join(outDir, "run"))
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var r *report
	want := endToEnd
	if *traceOn == 1 {
		r, err = traced(w, *seed, dur, root, filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed)))
		want = perLayerNames()
	} else {
		r, err = untraced(w, *seed, dur, root)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	emit(w, *seed, r, want)
}

// emit prints the human-readable report and, last, the result line.
func emit(w *workload, seed int64, r *report, want []string) {
	fmt.Printf("workload %s  seed %d  loop closed  connections %d  devices %d\n", w.name, seed, connections, devices)
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.name] = m
		fmt.Printf("  %-32s %14.6g %-9s samples=%d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	for i, v := range r.violations {
		if i == 20 {
			fmt.Printf("  ... %d more violations\n", len(r.violations)-i)
			break
		}
		fmt.Println("  VIOLATION:", v)
	}
	res := result{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]map[string]any, len(want))}
	for _, n := range want {
		m, ok := byName[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: metric %s missing\n", n)
			os.Exit(1)
		}
		res.Metrics[n] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(&res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(line)))
}
