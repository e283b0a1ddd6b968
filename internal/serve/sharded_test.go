package serve

import (
	"context"
	"errors"
	"slices"
	"testing"

	"gcolor/internal/color"
	"gcolor/internal/gen"
	"gcolor/internal/gpucolor"
	"gcolor/internal/shard"
	"gcolor/internal/simt"
)

// TestShardedSubmit pins the scatter-gather path end to end: a pinned
// Shards=K request fans out, merges, repairs, and returns one verified
// coloring with the shard evidence filled in.
func TestShardedSubmit(t *testing.T) {
	s := NewServer(Config{Devices: 4, Device: DeviceConfig{Workers: 1}})
	defer s.Stop()
	g := gen.RMAT(11, 8, gen.Graph500, 1)
	res, err := s.Submit(context.Background(), &Request{
		Graph:     g,
		Algorithm: gpucolor.AlgBaseline,
		Shards:    4,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := color.Verify(g, res.Colors); err != nil {
		t.Fatalf("sharded coloring invalid: %v", err)
	}
	if res.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", res.Shards)
	}
	if res.Device != -1 {
		t.Fatalf("Device = %d, want -1 for a multi-device job", res.Device)
	}
	if res.NumColors != color.NumColors(res.Colors) {
		t.Fatalf("NumColors %d does not match coloring (%d)", res.NumColors, color.NumColors(res.Colors))
	}
	if st := s.Stats(); st.ShardJobs != 1 {
		t.Fatalf("ShardJobs = %d, want 1", st.ShardJobs)
	}
}

// TestShardedSubmitMatchesColorDevices pins that serving a graph sharded
// is the library's sharded coloring: the same colors and total cycles as
// shard.ColorDevices for the same graph, shard count and seed.
func TestShardedSubmitMatchesColorDevices(t *testing.T) {
	s := NewServer(Config{Devices: 3, Device: DeviceConfig{Workers: 1}})
	defer s.Stop()
	g := gen.RMAT(11, 8, gen.Graph500, 4)
	for _, k := range []int{2, 3, 5} {
		res, err := s.Submit(context.Background(), &Request{Graph: g, Algorithm: gpucolor.AlgBaseline, Shards: k, Seed: 7})
		if err != nil {
			t.Fatalf("k=%d: Submit: %v", k, err)
		}
		devs := make([]*simt.Device, 3)
		for i := range devs {
			devs[i] = simt.NewDevice()
			devs[i].Workers = 1
		}
		want, err := shard.ColorDevices(context.Background(), devs, g, gpucolor.AlgBaseline,
			shard.Options{K: k, Seed: 7}, gpucolor.ResilientOptions{})
		if err != nil {
			t.Fatalf("k=%d: ColorDevices: %v", k, err)
		}
		if res.Shards != want.K || !slices.Equal(res.Colors, want.Colors) || res.Cycles != want.CyclesTotal {
			t.Fatalf("k=%d: served %d shards, %d cycles; ColorDevices %d shards, %d cycles; colors equal %v",
				k, res.Shards, res.Cycles, want.K, want.CyclesTotal, slices.Equal(res.Colors, want.Colors))
		}
		if res.ShardConflicts != want.Repair.Conflicts || res.ShardRepairRounds != want.Repair.Rounds ||
			res.ShardRecolored != want.Repair.Recolored {
			t.Fatalf("k=%d: served repair %d/%d/%d, ColorDevices %+v", k,
				res.ShardConflicts, res.ShardRepairRounds, res.ShardRecolored, want.Repair)
		}
	}
}

// TestShardedAutoThreshold pins the auto knob: a graph at or above the
// configured vertex threshold shards without the request asking, a small
// one stays single-device, and Shards=1 pins single-device regardless.
func TestShardedAutoThreshold(t *testing.T) {
	s := NewServer(Config{
		Devices: 2,
		Device:  DeviceConfig{Workers: 1},
		Shard:   ShardConfig{AutoVertices: 1024, AutoEdges: -1},
	})
	defer s.Stop()

	big := gen.RMAT(10, 8, gen.Graph500, 1) // 1024 vertices: at threshold
	res, err := s.Submit(context.Background(), &Request{Graph: big})
	if err != nil {
		t.Fatalf("auto submit: %v", err)
	}
	if res.Shards != 2 {
		t.Fatalf("auto Shards = %d, want 2", res.Shards)
	}

	small := smallGraph() // 64 vertices: below threshold
	res, err = s.Submit(context.Background(), &Request{Graph: small})
	if err != nil {
		t.Fatalf("small submit: %v", err)
	}
	if res.Shards != 1 {
		t.Fatalf("small-graph Shards = %d, want 1", res.Shards)
	}

	res, err = s.Submit(context.Background(), &Request{Graph: big, Shards: 1, Seed: 9})
	if err != nil {
		t.Fatalf("pinned submit: %v", err)
	}
	if res.Shards != 1 {
		t.Fatalf("pinned Shards = %d, want 1", res.Shards)
	}
}

// TestShardedCacheKeyed pins that shard count is part of the cache key —
// a single-device result must not answer a pinned K-shard request — and
// that a repeated sharded request is served from cache.
func TestShardedCacheKeyed(t *testing.T) {
	s := NewServer(Config{Devices: 2, Device: DeviceConfig{Workers: 1}})
	defer s.Stop()
	g := gen.RMAT(10, 8, gen.Graph500, 1)
	ctx := context.Background()

	single, err := s.Submit(ctx, &Request{Graph: g, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := s.Submit(ctx, &Request{Graph: g, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Cached {
		t.Fatal("sharded request answered from the single-device cache entry")
	}
	if single.Shards != 1 || sharded.Shards != 2 {
		t.Fatalf("Shards = %d/%d, want 1/2", single.Shards, sharded.Shards)
	}
	again, err := s.Submit(ctx, &Request{Graph: g, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeated sharded request missed the cache")
	}
	if again.Shards != 2 {
		t.Fatalf("cached Shards = %d, want 2", again.Shards)
	}
}

// TestShardedUnderChaos faults one pool device and asserts a sharded job
// still completes with a verified coloring: the per-shard resilient
// ladder and the shard-level re-dispatch absorb the damage.
func TestShardedUnderChaos(t *testing.T) {
	s := NewServer(Config{DeviceConfigs: []DeviceConfig{
		{Workers: 1},
		{Workers: 1, FaultRate: 0.05, FaultSeed: 7},
		{Workers: 1},
	}})
	defer s.Stop()
	g := gen.RMAT(10, 8, gen.Graph500, 2)
	res, err := s.Submit(context.Background(), &Request{Graph: g, Shards: 3})
	if err != nil {
		t.Fatalf("sharded submit under chaos: %v", err)
	}
	if err := color.Verify(g, res.Colors); err != nil {
		t.Fatalf("coloring under chaos invalid: %v", err)
	}
	if res.Shards != 3 {
		t.Fatalf("Shards = %d, want 3", res.Shards)
	}
}

// TestShardedRetryOnDeviceFailure forces every device attempt to fail
// (cycle budget 1, no ladder retries, no CPU fallback) and asserts the
// shard layer retried on another device before surfacing the typed error.
func TestShardedRetryOnDeviceFailure(t *testing.T) {
	s := NewServer(Config{Devices: 2, Device: DeviceConfig{Workers: 1}})
	defer s.Stop()
	g := gen.RMAT(10, 8, gen.Graph500, 1)
	_, err := s.Submit(context.Background(), &Request{
		Graph:         g,
		Shards:        2,
		CycleBudget:   1,
		MaxRetries:    -1,
		NoCPUFallback: true,
		NoCache:       true,
	})
	if err == nil {
		t.Fatal("expected failure with an impossible cycle budget")
	}
	if !errors.Is(err, gpucolor.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if st := s.Stats(); st.ShardRetries < 1 {
		t.Fatalf("ShardRetries = %d, want >= 1", st.ShardRetries)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
}

// TestShardedMatchesUnshardedQuality bounds the color-count cost of
// sharding through the serving path.
func TestShardedMatchesUnshardedQuality(t *testing.T) {
	s := NewServer(Config{Devices: 4, Device: DeviceConfig{Workers: 1}})
	defer s.Stop()
	g := gen.RMAT(11, 8, gen.Graph500, 3)
	ctx := context.Background()
	single, err := s.Submit(ctx, &Request{Graph: g, Shards: 1, Algorithm: gpucolor.AlgHybrid})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := s.Submit(ctx, &Request{Graph: g, Shards: 4, Algorithm: gpucolor.AlgHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if limit := single.NumColors*13/10 + 1; sharded.NumColors > limit {
		t.Fatalf("sharded used %d colors vs single-device %d (limit %d)",
			sharded.NumColors, single.NumColors, limit)
	}
}
