package exp

import (
	"fmt"
	"io"

	"gcolor/internal/gpucolor"
	"gcolor/internal/metrics"
	"gcolor/internal/simt"
)

// Config parameterizes an experiment run.
type Config struct {
	Scale Scale
	Seed  uint32 // vertex-priority seed; 0 means the default
}

// device returns a fresh device in the experiment's standard configuration:
// HD 7950-like geometry with the given workgroup size and policy.
func device(wg int, p simt.Policy) *simt.Device {
	d := simt.NewDevice()
	d.WorkgroupSize = wg
	d.Policy = p
	return d
}

const (
	coarseWG = 256 // the device default, used for characterization figures
	fineWG   = 64  // fine-grained tasks, used for the scheduling figures
)

// Experiment couples an id ("T1", "F1".."F9") with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) ([]*Table, error)
}

// Experiments returns every experiment in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"T1", "Datasets and degree statistics", TableDatasets},
		{"F1", "Baseline GPU coloring time per graph", FigBaselineTime},
		{"F2", "Convergence: active vertices per iteration", FigConvergence},
		{"F3", "Intra-wavefront load imbalance", FigWavefrontImbalance},
		{"F4", "SIMD utilization and memory behaviour", FigUtilization},
		{"F5", "Workgroup scheduling policies", FigScheduling},
		{"F6", "Hybrid degree-threshold sensitivity", FigHybridThreshold},
		{"F7", "Headline: stealing and hybrid vs baseline", FigHeadline},
		{"F8", "Workgroup-size sensitivity", FigWorkgroupSize},
		{"F9", "Algorithm comparison (GPU and CPU)", FigAlgorithms},
		{"A1", "Ablation: vertex labeling vs static scheduling", AblationLabeling},
		{"A2", "Ablation: priority-seed variance", AblationSeeds},
		{"A3", "Ablation: steal-cost sensitivity", AblationStealCost},
		{"A4", "Ablation: coalescing granularity", AblationCoalescing},
		{"A5", "Ablation: worklist compaction strategy", AblationCompaction},
		{"A6", "Ablation: per-workgroup read cache", AblationCache},
		{"X1", "Extension: distance-2 coloring", FigDistance2},
		{"X2", "Extension: imbalance across irregular workloads", FigApps},
		{"X3", "Extension: compute-unit scaling", FigScalability},
		{"X4", "Extension: hybrid technique on BFS", FigHybridBFS},
		{"X5", "Extension: fault injection and recovery", FigResilience},
	}
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) ([]*Table, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q", id)
}

// RunAll executes every experiment, writing each table to w as it finishes.
func RunAll(cfg Config, w io.Writer) error { return runAll(cfg, w, nil) }

// runAll is RunAll that hands each experiment's tables to check, when set,
// before writing them.
func runAll(cfg Config, w io.Writer, check func(Experiment, []*Table)) error {
	for _, e := range Experiments() {
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("exp %s: %w", e.ID, err)
		}
		if check != nil {
			check(e, tables)
		}
		for _, t := range tables {
			if err := t.Fprint(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// TableDatasets produces T-R1: the dataset inventory with the degree
// statistics that predict SIMT behaviour.
func TableDatasets(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "T1",
		Title:  "Datasets and degree statistics",
		Note:   "degree CV and max/avg predict intra-wavefront imbalance",
		Header: []string{"graph", "kind", "vertices", "edges", "deg-min", "deg-avg", "deg-max", "deg-p99", "deg-CV", "max/avg"},
	}
	for _, d := range Datasets() {
		g := d.Build(cfg.Scale)
		st := g.Stats()
		t.Add(d.Name, d.Kind,
			fmt.Sprintf("%d", g.NumVertices()),
			fmt.Sprintf("%d", g.NumEdges()),
			fmt.Sprintf("%d", st.Min),
			fmt.Sprintf("%.1f", st.Mean),
			fmt.Sprintf("%d", st.Max),
			fmt.Sprintf("%d", st.P99),
			fmt.Sprintf("%.2f", st.CV),
			fmt.Sprintf("%.1f", st.MaxOverAvg),
		)
	}
	return []*Table{t}, nil
}

// FigBaselineTime produces F-R1: end-to-end simulated time of the baseline
// colorMax implementation on every graph.
func FigBaselineTime(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "F1",
		Title:  "Baseline GPU coloring time per graph",
		Note:   "colorMax, thread-per-vertex, static scheduling, workgroup size 256",
		Header: []string{"graph", "cycles", "iterations", "colors", "cycles/edge"},
	}
	for _, d := range Datasets() {
		g := d.Build(cfg.Scale)
		res, err := gpucolor.Baseline(device(coarseWG, simt.Static), g, gpucolor.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		t.Add(d.Name,
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%d", res.Iterations),
			fmt.Sprintf("%d", res.NumColors),
			fmt.Sprintf("%.1f", float64(res.Cycles)/float64(g.NumEdges())),
		)
	}
	return []*Table{t}, nil
}

// FigConvergence produces F-R2: the active-vertex series per iteration for
// colorMax versus colorMaxMin on a scale-free and a mesh input.
func FigConvergence(cfg Config) ([]*Table, error) {
	var tables []*Table
	for _, name := range []string{"rmat", "grid2d"} {
		d, _ := DatasetByName(name)
		g := d.Build(cfg.Scale)
		base, err := gpucolor.Baseline(device(coarseWG, simt.Static), g, gpucolor.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		mm, err := gpucolor.MaxMin(device(coarseWG, simt.Static), g, gpucolor.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:     "F2",
			Title:  fmt.Sprintf("Active vertices per iteration (%s)", name),
			Note:   fmt.Sprintf("colorMax: %d iterations, colorMaxMin: %d", base.Iterations, mm.Iterations),
			Header: []string{"iteration", "colorMax active", "colorMaxMin active"},
		}
		rows := base.Iterations
		if mm.Iterations > rows {
			rows = mm.Iterations
		}
		step := 1
		if rows > 16 {
			step = rows / 16
		}
		for i := 0; i < rows; i += step {
			bs, ms := "-", "-"
			if i < len(base.ActivePerIter) {
				bs = fmt.Sprintf("%d", base.ActivePerIter[i])
			}
			if i < len(mm.ActivePerIter) {
				ms = fmt.Sprintf("%d", mm.ActivePerIter[i])
			}
			t.Add(fmt.Sprintf("%d", i), bs, ms)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// FigWavefrontImbalance produces F-R3: the distribution of per-wavefront
// work in the baseline candidate kernels — the paper's intra-wavefront
// imbalance evidence.
func FigWavefrontImbalance(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "F3",
		Title:  "Intra-wavefront load imbalance (baseline candidate kernels)",
		Note:   "per-wavefront cycles; max/mean >> 1 means a few hub wavefronts dominate",
		Header: []string{"graph", "wavefronts", "mean", "p-max", "CV", "max/mean", "gini"},
	}
	for _, d := range Datasets() {
		g := d.Build(cfg.Scale)
		res, err := gpucolor.Baseline(device(coarseWG, simt.Static), g, gpucolor.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		s := metrics.SummarizeInt64(res.WavefrontWork)
		t.Add(d.Name,
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.0f", s.Mean),
			fmt.Sprintf("%.0f", s.Max),
			fmt.Sprintf("%.2f", s.CV),
			fmt.Sprintf("%.1f", s.MaxOverMean),
			fmt.Sprintf("%.2f", s.Gini),
		)
	}
	return []*Table{t}, nil
}

// FigUtilization produces F-R4: SIMD lane occupancy and memory coalescing
// behaviour of the baseline per graph.
func FigUtilization(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:     "F4",
		Title:  "SIMD utilization and memory behaviour (baseline)",
		Note:   "util = busy lane slots / issued lane slots; txn/access = coalescing quality (1/16 is perfect)",
		Header: []string{"graph", "SIMD util", "mem accesses", "transactions", "txn/access", "atomics"},
	}
	for _, d := range Datasets() {
		g := d.Build(cfg.Scale)
		res, err := gpucolor.Baseline(device(coarseWG, simt.Static), g, gpucolor.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		t.Add(d.Name,
			fmt.Sprintf("%.3f", res.SIMDUtilization()),
			fmt.Sprintf("%d", res.MemAccesses),
			fmt.Sprintf("%d", res.MemTransactions),
			fmt.Sprintf("%.3f", float64(res.MemTransactions)/float64(res.MemAccesses)),
			fmt.Sprintf("%d", res.Atomics),
		)
	}
	return []*Table{t}, nil
}
