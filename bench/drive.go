package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gcolor/internal/graph"
	"gcolor/internal/serve"
)

// connections is every workload's client connection count. Two
// closed-loop connections cannot build a server-side queue, so admission
// shedding and batching stay mostly idle (see notes.json).
const connections = 2

// answer is what the benchmark keeps of one request and its response.
type answer struct {
	conn, seq int
	key       string
	retry     bool
	spec      string
	graph     *graph.Graph
	chain     int
	opt       coloring
	binary    bool
	bodyBytes int
	idemKey   string

	timed bool          // sent before the deadline
	done  time.Duration // completion, since the run started
	lat   time.Duration // send to last response byte (traced: the request span)
	err   error

	res    serve.ColorResponse // Colors cleared once hashed
	hash   uint64              // FNV-1a of the colors
	colors []int32             // kept for the first answer of a key
	diff   []int32             // delta steps: (vertex, color) pairs changed since the previous step
}

// executed reports that the answer ran a coloring rather than being
// replayed from a cache or the idempotency map.
func (a *answer) executed() bool {
	return a.err == nil && !a.res.Cached && !a.res.Coalesced && !a.res.IdempotentReplay
}

func hashColors(cs []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cs {
		h ^= uint64(uint32(c))
		h *= 1099511628211
	}
	return h
}

// sender performs one request on connection c and returns the response
// with its latency.
type sender func(c int, req *request) (*serve.ColorResponse, time.Duration, error)

// httpConn is one client connection: a transport allowed a single
// keep-alive connection, so two of them are exactly two connections.
type httpConn struct {
	tr     *http.Transport
	client *http.Client
	buf    bytes.Buffer
}

func newHTTPConns() []*httpConn {
	cs := make([]*httpConn, connections)
	for i := range cs {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		cs[i] = &httpConn{tr: tr, client: &http.Client{Transport: tr}}
	}
	return cs
}

func closeHTTPConns(cs []*httpConn) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// httpSender posts requests to base's /color the way a client would:
// binary frames with options in the query, or JSON bodies, each with its
// Idempotency-Key; the response is read to its last byte, then decoded.
func httpSender(base string, conns []*httpConn) sender {
	return func(c int, req *request) (*serve.ColorResponse, time.Duration, error) {
		hc := conns[c]
		u, ct := base+"/color", "application/json"
		if req.binary {
			u, ct = u+"?"+req.query, serve.ContentTypeBinaryCSR
		}
		hr, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(req.body))
		if err != nil {
			return nil, 0, err
		}
		hr.Header.Set("Content-Type", ct)
		if req.idemKey != "" {
			hr.Header.Set("Idempotency-Key", req.idemKey)
		}
		t0 := time.Now()
		resp, err := hc.client.Do(hr)
		if err != nil {
			return nil, time.Since(t0), err
		}
		hc.buf.Reset()
		_, err = hc.buf.ReadFrom(resp.Body)
		lat := time.Since(t0)
		resp.Body.Close()
		if err != nil {
			return nil, lat, fmt.Errorf("read response: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, lat, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(hc.buf.Bytes()))
		}
		var out serve.ColorResponse
		if err := json.Unmarshal(hc.buf.Bytes(), &out); err != nil {
			return nil, lat, fmt.Errorf("decode response: %w", err)
		}
		return &out, lat, nil
	}
}

// runResult is one run of a workload's closed loop.
type runResult struct {
	answers [connections][]*answer
	start   time.Time
	window  time.Duration // start to the last timed completion
}

// keeper decides which colorings a connection keeps in full: the first
// answer of every key not answered in warm-up, and a per-chain diff for
// delta steps. Everything else keeps only its hash.
type keeper struct {
	warm map[string]bool
	seen map[string]bool
	prev []int32
}

func (k *keeper) keep(a *answer) {
	cs := a.res.Colors
	a.res.Colors = nil
	a.hash = hashColors(cs)
	switch {
	case a.chain >= 0:
		for i, c := range cs {
			if i >= len(k.prev) || k.prev[i] != c {
				a.diff = append(a.diff, int32(i), c)
			}
		}
		k.prev = cs
	case !k.warm[a.key] && !k.seen[a.key]:
		a.colors = cs
		k.seen[a.key] = true
	}
}

func newAnswer(req *request, res *serve.ColorResponse, lat time.Duration, err error) *answer {
	a := &answer{conn: req.conn, seq: req.seq, key: req.key, retry: req.retry, spec: req.spec,
		graph: req.graph, chain: req.chain, opt: req.opt, binary: req.binary,
		bodyBytes: len(req.body), idemKey: req.idemKey, lat: lat, err: err}
	if res != nil {
		a.res = *res
	}
	return a
}

// warmUp sends the workload's warm requests on their connections and
// returns their answers, colors kept in full. It is part of set-up.
func warmUp(in inputs, send sender) ([]*answer, error) {
	reqs := in.warm()
	out := make([]*answer, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, req := range reqs {
				if req.conn != c {
					continue
				}
				res, lat, err := send(c, req)
				a := newAnswer(req, res, lat, err)
				if err == nil {
					in.observe(req, a.res.Fingerprint)
					a.colors, a.hash = a.res.Colors, hashColors(a.res.Colors)
					a.res.Colors = nil
				}
				out[i] = a
			}
		}(c)
	}
	wg.Wait()
	for _, a := range out {
		if a.err != nil {
			return out, fmt.Errorf("warm-up %s: %w", a.key, a.err)
		}
	}
	return out, nil
}

// closedLoop runs the workload's two connections for dur. Each sends its
// next request only after the previous answer arrived. A connection keeps
// going past the deadline, untimed, until it has sent its first prefix
// requests, so the deterministic metrics always cover the same requests.
func closedLoop(in inputs, send sender, warm []*answer, prefix int, dur time.Duration) *runResult {
	warmKeys := make(map[string]bool, len(warm))
	heads := make(map[int][]int32)
	for _, a := range warm {
		warmKeys[a.key] = true
		if a.chain >= 0 {
			heads[a.chain] = a.colors
		}
	}
	rr := &runResult{start: time.Now()}
	deadline := rr.start.Add(dur)
	ends := make([]time.Time, connections)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kp := &keeper{warm: warmKeys, seen: make(map[string]bool), prev: heads[c]}
			for k := 0; ; k++ {
				timed := time.Now().Before(deadline)
				if !timed && k >= prefix {
					return
				}
				req := in.next(c, k)
				res, lat, err := send(c, req)
				a := newAnswer(req, res, lat, err)
				a.timed, a.done = timed, time.Since(rr.start)
				if timed {
					ends[c] = time.Now()
				}
				if err == nil {
					in.observe(req, a.res.Fingerprint)
					kp.keep(a)
				}
				rr.answers[c] = append(rr.answers[c], a)
				if err != nil && req.chain >= 0 {
					return // a broken chain cannot continue
				}
			}
		}(c)
	}
	wg.Wait()
	for _, e := range ends {
		if d := e.Sub(rr.start); d > rr.window {
			rr.window = d
		}
	}
	return rr
}
