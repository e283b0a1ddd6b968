package serve

import (
	"context"
	"slices"
	"testing"
	"time"

	"gcolor/internal/gen"
	"gcolor/internal/graph"
)

// packCases are a narrow palette, stored one byte per vertex, and a
// complete graph needing more than 255 colors, stored as int32.
func packCases() []struct {
	name   string
	g      *graph.Graph
	packed bool
} {
	return []struct {
		name   string
		g      *graph.Graph
		packed bool
	}{
		{"narrow", smallGraph(), true},
		{"wide", gen.Complete(260), false},
	}
}

// TestStoredColorsRoundTrip: the result cache and the idempotency LRU
// share one stored response, packed only when the palette fits a byte, and
// cache hits, idempotent replays and coalesced waiters all return colors
// identical to the original answer — and private to their caller.
func TestStoredColorsRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, tc := range packCases() {
		s := NewServer(Config{Devices: 1})
		idem := "pack-" + tc.name
		first, err := s.Submit(ctx, &Request{Graph: tc.g, IdemKey: idem})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.packed == (first.NumColors > 255) {
			t.Fatalf("%s: %d colors does not exercise this case", tc.name, first.NumColors)
		}
		want := slices.Clone(first.Colors)
		e, ok := s.front.idem.Get(idem)
		stored := e.res
		if !ok {
			t.Fatalf("%s: no idempotent entry", tc.name)
		}
		if (stored.colors8 != nil) != tc.packed || (stored.Colors == nil) != tc.packed {
			t.Errorf("%s: stored packed=%v, want %v", tc.name, stored.colors8 != nil, tc.packed)
		}
		if exp := s.front.cache.Snapshot(); len(exp) != 1 || exp[0].Value.res != stored {
			t.Errorf("%s: the cache and the idempotency LRU do not share one stored response", tc.name)
		}

		for i, req := range []*Request{
			{Graph: tc.g},
			{Graph: tc.g, IdemKey: idem},
			{Graph: tc.g},
		} {
			got, err := s.Submit(ctx, req)
			if err != nil {
				t.Fatalf("%s: hit %d: %v", tc.name, i, err)
			}
			if !got.Cached || !slices.Equal(got.Colors, want) {
				t.Fatalf("%s: hit %d (cached=%v) colors differ from the original answer", tc.name, i, got.Cached)
			}
			for v := range got.Colors {
				got.Colors[v] = -3 // callers may trash what they receive
			}
		}

		// Coalesced waiters: hold the only worker, then send duplicates of
		// a new key (another seed) that share one execution.
		blocked := make(chan struct{})
		go func() {
			defer close(blocked)
			if _, err := s.Submit(ctx, &Request{Graph: slowBlockerGraph(), NoCache: true}); err != nil {
				t.Errorf("blocker: %v", err)
			}
		}()
		waitFor(t, "blocker to occupy the device", func() bool {
			return s.Metrics().Gauge("devices_busy").Value() == 1
		})
		const dups = 3
		out := make(chan *Response, dups)
		for i := 0; i < dups; i++ {
			go func() {
				res, err := s.Submit(ctx, &Request{Graph: tc.g, Seed: 99})
				if err != nil {
					t.Errorf("%s: duplicate: %v", tc.name, err)
				}
				out <- res
			}()
		}
		var answers [][]int32
		coalesced := 0
		for i := 0; i < dups; i++ {
			select {
			case res := <-out:
				if res == nil {
					t.FailNow()
				}
				if res.Coalesced {
					coalesced++
				}
				answers = append(answers, res.Colors)
			case <-time.After(120 * time.Second):
				t.Fatal("timed out waiting for duplicates")
			}
		}
		<-blocked
		if coalesced == 0 {
			t.Errorf("%s: no duplicate coalesced", tc.name)
		}
		for _, a := range answers[1:] {
			if !slices.Equal(a, answers[0]) {
				t.Errorf("%s: coalesced and leading answers differ", tc.name)
			}
		}
		s.Stop()
	}
}

// TestStoredColorsSurviveSnapshot: journal compaction exports the stored
// (packed or wide) answers, and a server warm-started from the snapshot
// serves cache hits and idempotent replays with the original colors.
func TestStoredColorsSurviveSnapshot(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	j1, rec1 := openTestJournal(t, dir)
	s1 := NewServer(Config{Devices: 1, Journal: j1, Recovery: rec1})
	want := map[string][]int32{}
	for _, tc := range packCases() {
		res, err := s1.Submit(ctx, &Request{Graph: tc.g, IdemKey: "snap-" + tc.name})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want[tc.name] = res.Colors
	}
	if err := j1.Compact(); err != nil {
		t.Fatal(err)
	}
	s1.Stop()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := openTestJournal(t, dir)
	s2 := NewServer(Config{Devices: 1, Journal: j2, Recovery: rec2})
	defer func() { s2.Stop(); j2.Close() }()
	for _, tc := range packCases() {
		hit, err := s2.Submit(ctx, &Request{Graph: tc.g})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		replay, err := s2.Submit(ctx, &Request{Graph: tc.g, IdemKey: "snap-" + tc.name})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !hit.Cached || !replay.IdempotentReplay {
			t.Fatalf("%s: warm start missed (cached=%v replay=%v)", tc.name, hit.Cached, replay.IdempotentReplay)
		}
		if !slices.Equal(hit.Colors, want[tc.name]) || !slices.Equal(replay.Colors, want[tc.name]) {
			t.Errorf("%s: colors changed across snapshot and warm start", tc.name)
		}
	}
}
