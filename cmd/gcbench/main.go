// Command gcbench regenerates the paper's tables and figures (see DESIGN.md
// for the experiment index and EXPERIMENTS.md for recorded output). One
// serving-side mode rides along: the hot-path host benchmark, which holds
// the allocation budget and the default-mix floor.
//
// Usage:
//
//	gcbench                 # run everything at full scale
//	gcbench -exp F7         # just the headline comparison
//	gcbench -scale small    # quick pass with small datasets
//	gcbench -hostperf       # hot-path host benchmark -> BENCH_PR3.json
//
// The serving layer's other gates (sharded color quality, the delta
// stream's speedup and allocations, the fleet's scatter speedup and kill
// drill, the self-healing soak, the standby failover and gray-failure
// drills) are Go tests in the packages that own them; bench/ measures the
// serving stack end to end.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gcolor/internal/exp"
)

func main() {
	var (
		id     = flag.String("exp", "all", `experiment id: all, T1, F1..F9, A1..A6, X1`)
		scale  = flag.String("scale", "full", "dataset scale for the paper experiments: full or small")
		format = flag.String("format", "text", "output format: text or csv")

		hostperf  = flag.Bool("hostperf", false, "run the hot-path host benchmark (arena/pooling/fusion) instead of the paper experiments")
		hostOut   = flag.String("hostperf-json", "BENCH_PR3.json", "output file for -hostperf")
		hostN     = flag.Int("hostperf-requests", 20, "steady-state request count per timed pass (five per section) for -hostperf")
		budgetArg = flag.String("budget", "", "allocation budget file (BENCH_BUDGET.json); -hostperf fails if the pooled serving path exceeds it")
	)
	flag.Parse()

	if *hostperf {
		if err := runHostperfBench(*hostOut, *budgetArg, *hostN); err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := exp.Config{Scale: exp.Full}
	switch *scale {
	case "full":
	case "small":
		cfg.Scale = exp.Small
	default:
		fmt.Fprintf(os.Stderr, "gcbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	emit := func(t *exp.Table) error { return t.Fprint(os.Stdout) }
	switch *format {
	case "text":
	case "csv":
		emit = func(t *exp.Table) error { return t.WriteCSV(os.Stdout) }
	default:
		fmt.Fprintf(os.Stderr, "gcbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	start := time.Now()
	var err error
	ids := []string{*id}
	if *id == "all" {
		ids = ids[:0]
		for _, e := range exp.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, one := range ids {
		if err != nil {
			break
		}
		var tables []*exp.Table
		tables, err = exp.Run(one, cfg)
		for _, t := range tables {
			if err == nil {
				err = emit(t)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gcbench: done in %v\n", time.Since(start))
}
