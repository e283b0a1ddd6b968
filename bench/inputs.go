package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"gcolor/internal/graph"
	"gcolor/internal/serve"
)

// rng is a splitmix64 stream. It is cheap to seed, so every request is a
// pure function of (workload seed, connection, position in the sequence)
// and the traced run replays exactly the requests the untraced run sent.
type rng struct{ s uint64 }

func newRNG(parts ...int64) *rng {
	r := &rng{s: 0x6a09e667f3bcc909}
	for _, p := range parts {
		r.s = r.next() ^ uint64(p)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a uniform integer in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// coloring is the option set a request asks for: one of the paper's
// algorithms under one of its workgroup schedulers.
type coloring struct {
	alg, policy string
	seed        uint32
}

var optionGrid = [4][2]string{
	{"baseline", "static"}, {"baseline", "stealing"},
	{"hybrid", "static"}, {"hybrid", "stealing"},
}

// optionsFor cycles through the option grid by i so every mix of graphs
// sees every algorithm and scheduler in fixed proportions.
func optionsFor(r *rng, i int) coloring {
	o := optionGrid[i%len(optionGrid)]
	return coloring{alg: o[0], policy: o[1], seed: uint32(r.between(1, 1<<16))}
}

// request is one request of a workload's seeded sequence.
type request struct {
	conn, seq int
	// key names the result a request asks for (graph content plus the
	// options that change the coloring); every answer under one key must
	// carry byte-identical colors. Delta steps have unique keys.
	key   string
	retry bool // an Idempotency-Key retry of an earlier request
	// spec regenerates the graph for verification; graph is set instead
	// when the graph stays in memory anyway (repeat sets, delta bases).
	spec  string
	graph *graph.Graph

	opt     coloring
	body    []byte
	binary  bool   // body is a binary CSR frame; options ride in query
	query   string // URL query of a binary upload
	idemKey string
	chain   int // delta chain index, -1 otherwise
}

// inputs generates one workload's request sequences. next(c, k) is
// connection c's k-th request; observe feeds each answer back, which only
// delta chains use (the next step names the previous answer's version).
type inputs interface {
	warm() []*request
	next(conn, seq int) *request
	observe(r *request, fp string)
}

func mustSpec(spec string) *graph.Graph {
	g, err := serve.ParseGraphSpec(spec)
	if err != nil {
		panic(fmt.Sprintf("bench: generator spec %q: %v", spec, err))
	}
	return g
}

func positive(r *rng) int { return r.between(1, 1<<30) }

// permutation is a seeded shuffle of 0..n-1. Repeat picks walk it in
// order, so every repeat graph is asked for equally often and a run's
// mix is the same for every seed.
func permutation(r *rng, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// The spec helpers fix every size by position i and draw only generator
// seeds from r, so each seed gets a different graph of the same size and
// a run's mix of sizes is the same for every seed.

// midSpec is a graph with about 1-2k vertices: R-MAT at scales 10 and 11
// for even i, G(n,m) sweeping n over [1000, 2000] for odd i.
func midSpec(r *rng, i int) string {
	j := i / 2
	if i%2 == 0 {
		return fmt.Sprintf("rmat:%d:8:%d", 10+(j/4)%2, positive(r))
	}
	return gnmSpec(r, j)
}

// gnmSpec is a G(n,m) graph with n swept over [1000, 2000]: at a fixed
// size its coloring cost and palette barely move with the generator seed.
func gnmSpec(r *rng, i int) string {
	n := 1000 + (i*397)%1001
	return fmt.Sprintf("gnm:%d:%d:%d", n, n*(4+i%5), positive(r))
}

// bigSpec is a graph at or above the 8192-vertex auto-shard threshold:
// R-MAT at scale 13 for even i, G(n,m) for odd.
func bigSpec(r *rng, i int) string {
	if i%2 == 0 {
		return fmt.Sprintf("rmat:13:8:%d", positive(r))
	}
	return bigGNMSpec(r, i/2)
}

func bigGNMSpec(r *rng, i int) string {
	n := 8192 + (i*257)%1025
	return fmt.Sprintf("gnm:%d:%d:%d", n, n*6, positive(r))
}

// smallSpec is a graph of at most 2000 vertices, cycling through grids,
// G(n,m), R-MAT and stars.
func smallSpec(r *rng, i int) string {
	j := i / 4
	switch i % 4 {
	case 0:
		return fmt.Sprintf("grid:%d:%d", 16+j%25, 16+(j*7)%35)
	case 1:
		n := 400 + (j*397)%1601
		return fmt.Sprintf("gnm:%d:%d:%d", n, n*(3+j%4), positive(r))
	case 2:
		return fmt.Sprintf("rmat:%d:%d:%d", 9+j%2, 4+j%5, positive(r))
	default:
		return fmt.Sprintf("star:%d", 400+(j*397)%1601)
	}
}

func (o coloring) values() url.Values {
	return url.Values{
		"alg":            {o.alg},
		"policy":         {o.policy},
		"seed":           {strconv.FormatUint(uint64(o.seed), 10)},
		"include_colors": {"true"},
	}
}

// jsonUpload is the JSON /color body carrying g as edge-list text.
func jsonUpload(g *graph.Graph, o coloring) []byte {
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	body, err := json.Marshal(&serve.ColorRequest{
		Graph: text.String(), Alg: o.alg, Policy: o.policy, Seed: o.seed, IncludeColors: true,
	})
	if err != nil {
		panic(err)
	}
	return body
}

// upload fills r's body with g in the requested encoding.
func (r *request) upload(g *graph.Graph, binary bool) *request {
	r.binary = binary
	if binary {
		r.body = graph.EncodeWireCSR(g)
		r.query = r.opt.values().Encode()
	} else {
		r.body = jsonUpload(g, r.opt)
	}
	return r
}

// ---- cold: never-seen mid-size graphs, binary frames, cache always missed.

// coldInputs pre-generates each connection's first requests in set-up;
// later ones are generated on demand, before they are sent.
type coldInputs struct {
	seed int64
	pre  [connections][]*request
}

func newColdInputs(seed int64, prefix int) *coldInputs {
	in := &coldInputs{seed: seed}
	for c := range in.pre {
		for k := 0; k < prefix; k++ {
			in.pre[c] = append(in.pre[c], in.gen(c, k))
		}
	}
	return in
}

func (in *coldInputs) warm() []*request { return nil }

func (in *coldInputs) observe(*request, string) {}

func (in *coldInputs) next(c, k int) *request {
	if k < len(in.pre[c]) {
		req := in.pre[c][k]
		in.pre[c][k] = nil // sent once; let it go
		return req
	}
	return in.gen(c, k)
}

// gen is connection c's k-th request: every 16th graph is large enough
// to auto-shard, and the options cycle through the paper's algorithms and
// schedulers.
func (in *coldInputs) gen(c, k int) *request {
	r := newRNG(in.seed, 1, int64(c), int64(k))
	spec := midSpec(r, k)
	if k%16 == 15 {
		spec = bigSpec(r, k/16)
	}
	req := &request{conn: c, seq: k, key: fmt.Sprintf("c%d/%d", c, k), spec: spec,
		opt: optionsFor(r, k/2), chain: -1}
	return req.upload(mustSpec(spec), true)
}

// ---- hot: a repeat set smaller than the result cache, ~2% misses,
// Idempotency-Key on every request and a share of retries.

const hotRepeatSet = 128

type repeatGraph struct {
	spec string
	g    *graph.Graph
	opt  coloring
	// frame and text are the graph's two upload encodings.
	frame, text []byte
}

func newRepeatSet(seed int64, stream, n int, spec func(r *rng, i int) string, binary bool) []*repeatGraph {
	set := make([]*repeatGraph, n)
	for i := range set {
		r := newRNG(seed, int64(stream), int64(i))
		s := spec(r, i)
		g := mustSpec(s)
		rg := &repeatGraph{spec: s, g: g, opt: optionsFor(r, i/4)}
		if binary {
			rg.frame = graph.EncodeWireCSR(g)
		}
		rg.text = jsonUpload(g, rg.opt)
		set[i] = rg
	}
	return set
}

func (rg *repeatGraph) request(c, k int, key string, binary bool) *request {
	req := &request{conn: c, seq: k, key: key, spec: rg.spec, graph: rg.g, opt: rg.opt, binary: binary, chain: -1}
	if binary {
		req.body = rg.frame
		req.query = rg.opt.values().Encode()
	} else {
		req.body = rg.text
	}
	return req
}

type hotInputs struct {
	seed  int64
	set   []*repeatGraph
	picks [connections][]int // per-connection order of repeat picks
}

func newHotInputs(seed int64) *hotInputs {
	in := &hotInputs{seed: seed, set: newRepeatSet(seed, 2, hotRepeatSet, smallSpec, true)}
	for c := range in.picks {
		in.picks[c] = permutation(newRNG(seed, 9, int64(c)), len(in.set))
	}
	return in
}

func (in *hotInputs) warm() []*request {
	out := make([]*request, len(in.set))
	for i, rg := range in.set {
		out[i] = rg.request(i%2, -1-i, fmt.Sprintf("r%d", i), i%2 == 0)
		out[i].idemKey = fmt.Sprintf("s%d-w%d", in.seed, i)
	}
	return out
}

func (in *hotInputs) observe(*request, string) {}

func (in *hotInputs) next(c, k int) *request {
	r := newRNG(in.seed, 3, int64(c), int64(k))
	slot := k % 50
	var req *request
	switch {
	case slot == 49:
		// A miss: a small graph no earlier request sent.
		spec := smallSpec(r, k/50)
		req = &request{conn: c, seq: k, key: fmt.Sprintf("m%d/%d", c, k), spec: spec,
			opt: optionsFor(r, k/50), chain: -1}
		req.upload(mustSpec(spec), (k/50)%2 == 0)
	case slot == 10 && k >= 50:
		// Retry of the previous block's miss: answered from the
		// idempotency map.
		req = in.next(c, k-11)
		req.retry, req.seq = true, k
		return req
	case slot == 24:
		// Retry of a recent repeat: answered from the result cache.
		req = in.next(c, k-1-r.intn(24))
		req.retry, req.seq = true, k
		return req
	default:
		i := in.picks[c][k%len(in.set)]
		req = in.set[i].request(c, k, fmt.Sprintf("r%d", i), r.next()&1 == 0)
	}
	req.idemKey = fmt.Sprintf("s%d-c%d-k%d", in.seed, c, k)
	return req
}

// ---- fleet: coordinator cache repeats of mid-size graphs, fresh small
// graphs routed whole, and large graphs scattered across both workers.
// JSON edge-list uploads. Repeats and large graphs are G(n,m): each is
// answered many times or weighs heavily in the per-answer means, and R-MAT
// there made sim_cycles and colors_used swing by ~8% between seeds.

const fleetRepeatSet = 32

type fleetInputs struct {
	seed  int64
	set   []*repeatGraph
	picks [connections][]int
}

func newFleetInputs(seed int64) *fleetInputs {
	in := &fleetInputs{seed: seed, set: newRepeatSet(seed, 4, fleetRepeatSet, gnmSpec, false)}
	for c := range in.picks {
		in.picks[c] = permutation(newRNG(seed, 10, int64(c)), len(in.set))
	}
	return in
}

func (in *fleetInputs) warm() []*request {
	out := make([]*request, len(in.set))
	for i, rg := range in.set {
		out[i] = rg.request(i%2, -1-i, fmt.Sprintf("r%d", i), false)
	}
	return out
}

func (in *fleetInputs) observe(*request, string) {}

func (in *fleetInputs) next(c, k int) *request {
	r := newRNG(in.seed, 5, int64(c), int64(k))
	slot := k % 64
	if slot != 63 && slot%4 != 1 {
		i := in.picks[c][k%len(in.set)]
		return in.set[i].request(c, k, fmt.Sprintf("r%d", i), false)
	}
	spec := smallSpec(r, k/4)
	if slot == 63 {
		spec = bigGNMSpec(r, k/64)
	}
	req := &request{conn: c, seq: k, key: fmt.Sprintf("f%d/%d", c, k), spec: spec,
		opt: optionsFor(r, k/4), chain: -1}
	return req.upload(mustSpec(spec), false)
}
