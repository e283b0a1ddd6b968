// Package shard partitions a CSR graph into K edge-balanced shards,
// colors the shards independently — in parallel, on separate devices —
// and reconciles the per-shard colorings with a bounded boundary repair
// loop. It lifts the paper's load-imbalance lesson one level up: just as
// hub vertices serialize wavefronts inside a device, a whole graph on one
// device serializes the fleet, so shards are balanced by work (arcs), not
// vertices, following the partitioned-coloring shape of Bogle et al.
// (arXiv:2107.00075) and the work-balanced splitting of Raval et al.
// (arXiv:1711.00231).
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/simt"
)

// Options configures a sharded coloring run. Cut refinement is always on
// and the boundary repair loop always gets DefaultRepairRounds rounds.
type Options struct {
	// K is the number of shards; Partition clamps it to the vertex count.
	// K <= 0 is an error.
	K int
	// Seed feeds the per-shard coloring seeds (shard i runs with
	// Seed + i so shards do not correlate) and the repair priority hash.
	Seed uint32
	// NoFallback disables the CPU greedy fallback when the repair budget
	// blows; the typed ErrRepairBudget surfaces instead.
	NoFallback bool
}

// Result is the outcome of a sharded run: the verified global coloring
// plus the partition and repair evidence.
type Result struct {
	// Colors is the proper global coloring; NumColors its palette size.
	Colors    []int32
	NumColors int
	// K is the shard count actually used; CutEdges the number of
	// cross-shard edges the partition produced.
	K        int
	CutEdges int
	// Repair records the boundary reconciliation work.
	Repair RepairStats
	// Cycles is the maximum simulated cycles over the shards — the
	// parallel makespan; CyclesTotal the sum — the serial-equivalent
	// work. ShardCycles breaks it down per shard.
	Cycles      int64
	CyclesTotal int64
	ShardCycles []int64
}

// ColorFunc colors shard i of k, whose subgraph sub has local vertex
// ids, and returns the coloring plus the simulated cycles spent.
// ColorSharded calls it once per shard, concurrently. An error it returns
// reaches the caller as is, so it should name its shard.
type ColorFunc func(ctx context.Context, i, k int, sub *graph.Graph) ([]int32, int64, error)

// ColorSharded partitions g into opt.K shards, colors every shard
// concurrently through fn, and reconciles the parts with MergeRepair.
// The first shard error cancels the remaining shards. The error returned
// is that of the shard that failed, not of a sibling that only saw the
// cancellation: the first in shard order that is not context.Canceled,
// else the first. The returned coloring always verifies.
func ColorSharded(ctx context.Context, g *graph.Graph, opt Options, fn ColorFunc) (*Result, error) {
	plan, err := Partition(g, opt.K, true)
	if err != nil {
		return nil, err
	}
	parts := make([][]int32, plan.K)
	cycles := make([]int64, plan.K)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, plan.K)
	var wg sync.WaitGroup
	for i := 0; i < plan.K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i], cycles[i], errs[i] = fn(sctx, i, plan.K, plan.Subs[i])
			if errs[i] != nil {
				cancel() // a lost shard fails the merge; reel the siblings in
			}
		}(i)
	}
	wg.Wait() // merge barrier: every shard decided
	var first error
	for _, err := range errs {
		if err != nil && (first == nil || errors.Is(first, context.Canceled) && !errors.Is(err, context.Canceled)) {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return finish(g, plan, parts, cycles, opt)
}

func finish(g *graph.Graph, plan *Plan, parts [][]int32, cycles []int64, opt Options) (*Result, error) {
	colors, st, err := MergeRepair(g, plan, parts, opt.Seed, DefaultRepairRounds, opt.NoFallback)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Colors:      colors,
		NumColors:   st.NumColors,
		K:           plan.K,
		CutEdges:    plan.CutEdges(),
		Repair:      st,
		ShardCycles: cycles,
	}
	for _, c := range cycles {
		res.CyclesTotal += c
		if c > res.Cycles {
			res.Cycles = c
		}
	}
	return res, nil
}

// ColorDevices colors g sharded across devs — shard i on
// devs[i % len(devs)] — through the resilient ladder (validate, repair,
// retry, CPU fallback per shard). ropt.Seed is overridden per shard with
// opt.Seed + i. With opt.K == 0 it defaults to len(devs).
func ColorDevices(ctx context.Context, devs []*simt.Device, g *graph.Graph, a gpucolor.Algorithm, opt Options, ropt gpucolor.ResilientOptions) (*Result, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("shard: no devices")
	}
	if opt.K == 0 {
		opt.K = len(devs)
	}
	return ColorSharded(ctx, g, opt, func(ctx context.Context, i, k int, sub *graph.Graph) ([]int32, int64, error) {
		o := ropt
		o.Seed = opt.Seed + uint32(i)
		out, err := gpucolor.ColorContext(ctx, devs[i%len(devs)], sub, a, o)
		if err != nil {
			return nil, 0, fmt.Errorf("shard %d/%d: %w", i, k, err)
		}
		return out.Colors, out.Cycles, nil
	})
}
