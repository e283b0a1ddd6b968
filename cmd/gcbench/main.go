// Command gcbench regenerates the paper's tables and figures (see DESIGN.md
// for the experiment index and EXPERIMENTS.md for recorded output).
//
// Usage:
//
//	gcbench                 # run everything at full scale
//	gcbench -exp F7         # just the headline comparison
//	gcbench -scale small    # quick pass with small datasets
//	gcbench -serving        # serving-layer benchmark -> BENCH_PR2.json
//	gcbench -hostperf       # hot-path host benchmark -> BENCH_PR3.json
//	gcbench -shard          # sharded multi-device benchmark -> BENCH_PR5.json
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
		scale  = flag.String("scale", "full", "dataset scale: full or small")
		format = flag.String("format", "text", "output format: text or csv")

		serving  = flag.Bool("serving", false, "run the serving-layer benchmark instead of the paper experiments")
		servOut  = flag.String("json", "BENCH_PR2.json", "output file for -serving")
		servN    = flag.Int("serving-requests", 60, "request count for -serving")
		servDevs = flag.Int("serving-devices", 4, "pooled devices for -serving")
		servConc = flag.Int("serving-conc", 8, "client concurrency for -serving")

		hostperf  = flag.Bool("hostperf", false, "run the hot-path host benchmark (arena/pooling/fusion) instead of the paper experiments")
		hostOut   = flag.String("hostperf-json", "BENCH_PR3.json", "output file for -hostperf")
		hostN     = flag.Int("hostperf-requests", 20, "steady-state request count per section for -hostperf")
		budgetArg = flag.String("budget", "", "allocation budget file (BENCH_BUDGET.json); -hostperf and -mutate fail if their serving path exceeds it")

		shardBench = flag.Bool("shard", false, "run the sharded multi-device benchmark (single device vs -shard-k shards) instead of the paper experiments")
		shardOut   = flag.String("shard-json", "BENCH_PR5.json", "output file for -shard")
		shardK     = flag.Int("shard-k", 4, "shard/device count for -shard")

		clusterBench = flag.Bool("cluster", false, "run the distributed-fleet drill (coordinator + workers, mid-run worker kill) instead of the paper experiments")
		clusterOut   = flag.String("cluster-json", "BENCH_PR7.json", "output file for -cluster")
		clusterW     = flag.Int("cluster-workers", 3, "worker daemons for -cluster")
		clusterJobs  = flag.Int("cluster-jobs", 3, "timed jobs per phase for -cluster")

		partBench = flag.Bool("partition", false, "run the partition-tolerance drill (standby failover under network chaos + gray-failure demotion) instead of the paper experiments")
		partOut   = flag.String("partition-json", "BENCH_PR9.json", "output file for -partition")
		partW     = flag.Int("partition-workers", 3, "worker daemons for -partition")

		mutateBench = flag.Bool("mutate", false, "run the incremental-coloring benchmark (delta stream vs from-scratch recoloring, verified conflict-free) instead of the paper experiments")
		mutateOut   = flag.String("mutate-json", "BENCH_PR10.json", "output file for -mutate")
		mutateSteps = flag.Int("mutate-steps", 40, "mutation steps for -mutate (each <= ~1% of edges)")
		mutateFloor = flag.Float64("mutate-floor", 3.0, "minimum median delta-vs-full speedup for -mutate")
	)
	flag.Parse()

	if *mutateBench {
		if err := runMutateBench(*mutateOut, *budgetArg, *mutateSteps, *mutateFloor); err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *partBench {
		if err := runPartitionBench(*partOut, *partW); err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *clusterBench {
		if err := runClusterBench(*clusterOut, *clusterW, *clusterJobs); err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *shardBench {
		sc := exp.Full
		if *scale == "small" {
			sc = exp.Small
		}
		if err := runShardBench(*shardOut, *shardK, sc); err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serving {
		if err := runServingBench(*servOut, *servN, *servDevs, *servConc); err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
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
