package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcolor/internal/cluster"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
)

func TestDefaultAdvertise(t *testing.T) {
	for _, c := range []struct {
		addr, want string
		wantErr    bool
	}{
		{addr: ":8431", want: "http://127.0.0.1:8431"},
		{addr: "127.0.0.1:8431", want: "http://127.0.0.1:8431"},
		{addr: "0.0.0.0:8431", want: "http://127.0.0.1:8431"},
		{addr: "[::]:8431", want: "http://127.0.0.1:8431"},
		{addr: "[::1]:8431", want: "http://[::1]:8431"},
		{addr: "localhost:8431", want: "http://localhost:8431"},
		{addr: "127.0.0.1", wantErr: true},
		{addr: "localhost:", wantErr: true},
		{addr: "[::1:8431", wantErr: true},
	} {
		got, err := defaultAdvertise(c.addr)
		if c.wantErr {
			if err == nil {
				t.Errorf("defaultAdvertise(%q) = %q, want an error", c.addr, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("defaultAdvertise(%q) = %q, %v; want %q", c.addr, got, err, c.want)
		}
	}
}

// A coordinator's result cache and request memo are sized by -cache, as a
// server's are: -cache -1 turns both off, so a repeat is routed again.
func TestCoordinatorConfigSizesCache(t *testing.T) {
	w := serve.NewServer(serve.Config{Devices: 1})
	defer w.Stop()
	wts := httptest.NewServer(serve.Handler(w))
	defer wts.Close()
	for _, c := range []struct {
		cache   int
		entries int // result-cache and memo entries after two identical uploads
	}{{cache: -1, entries: 0}, {cache: 0, entries: 1}, {cache: 1, entries: 1}} {
		cfg := coordinatorConfig(wts.URL+","+wts.URL+"/", -1, shard.Policy{}, c.cache)
		if len(cfg.Peers) != 2 || cfg.CacheEntries != c.cache || cfg.HeartbeatInterval != -1 {
			t.Fatalf("-cache %d: config %+v", c.cache, cfg)
		}
		coord := cluster.NewCoordinator(cfg)
		cts := httptest.NewServer(cluster.Handler(coord))
		before := w.Stats().Requests
		for i := 0; i < 2; i++ {
			resp, err := http.Post(cts.URL+"/color", "application/json", strings.NewReader(`{"gen":"grid:6:6"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("-cache %d: upload %d: http %d", c.cache, i, resp.StatusCode)
			}
		}
		routed := w.Stats().Requests - before
		st := coord.Stats()
		cts.Close()
		coord.Close()
		if routed != int64(2-c.entries) || st.CacheEntries != c.entries || st.MemoEntries != c.entries {
			t.Fatalf("-cache %d: %d of 2 uploads routed, cache entries %d, memo entries %d; want %d routed and %d entries each",
				c.cache, routed, st.CacheEntries, st.MemoEntries, 2-c.entries, c.entries)
		}
	}
}
