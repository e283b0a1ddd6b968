package main

import (
	"encoding/json"
	"fmt"

	"gcolor/internal/graph"
	"gcolor/internal/serve"
)

// edgeSet is the benchmark's own model of a mutating graph: the successor
// every delta answer is checked against is built here, independently of
// graph.ApplyDelta.
type edgeSet struct {
	n     int
	edges [][2]int32       // u < v
	index map[uint64]int32 // edge -> position in edges
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func newEdgeSet(g *graph.Graph) *edgeSet {
	s := &edgeSet{n: g.NumVertices(), index: make(map[uint64]int32, g.NumEdges())}
	off, adj := g.Offsets(), g.Adj()
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range adj[off[v]:off[v+1]] {
			if int32(v) < u {
				s.add(int32(v), u)
			}
		}
	}
	return s
}

func (s *edgeSet) has(u, v int32) bool {
	_, ok := s.index[edgeKey(u, v)]
	return ok
}

func (s *edgeSet) add(u, v int32) {
	if u > v {
		u, v = v, u
	}
	s.index[edgeKey(u, v)] = int32(len(s.edges))
	s.edges = append(s.edges, [2]int32{u, v})
}

func (s *edgeSet) remove(u, v int32) {
	k := edgeKey(u, v)
	i := s.index[k]
	last := s.edges[len(s.edges)-1]
	s.edges[i] = last
	s.index[edgeKey(last[0], last[1])] = i
	s.edges = s.edges[:len(s.edges)-1]
	delete(s.index, k)
}

// apply applies d with graph.ApplyDelta's semantics: removals first, then
// appended vertices, then additions.
func (s *edgeSet) apply(d *graph.Delta) {
	for _, e := range d.RemoveEdges {
		if s.has(e[0], e[1]) {
			s.remove(e[0], e[1])
		}
	}
	s.n += d.AddVertices
	for _, e := range d.AddEdges {
		if !s.has(e[0], e[1]) {
			s.add(e[0], e[1])
		}
	}
}

func (s *edgeSet) forEdges(fn func(u, v int32) bool) {
	for _, e := range s.edges {
		if !fn(e[0], e[1]) {
			return
		}
	}
}

// chain is one connection's version stream: a resident base uploaded in
// set-up, then deltas that each name the previous answer's fingerprint.
type chain struct {
	base  *graph.Graph
	model *edgeSet // the current head, advanced as steps are generated
	head  string   // fingerprint of the last answer
	steps []*graph.Delta
}

type deltaInputs struct {
	seed   int64
	chains [2]*chain
}

// deltaBaseSpec names the fixed resident bases, rmat:12:16:1 and
// rmat:12:16:2 (the first is gcbench -mutate's base); the workload seed drives
// the edits. With fixed bases the chains' device work is the same for
// every seed, and only the deltas vary.
const deltaBaseSpec = "rmat:12:16:%d"

func newDeltaInputs(seed int64) *deltaInputs {
	in := &deltaInputs{seed: seed}
	for c := range in.chains {
		g := mustSpec(fmt.Sprintf(deltaBaseSpec, c+1))
		in.chains[c] = &chain{base: g, model: newEdgeSet(g)}
	}
	return in
}

func (in *deltaInputs) warm() []*request {
	out := make([]*request, len(in.chains))
	for c, ch := range in.chains {
		req := &request{conn: c, seq: -1, key: fmt.Sprintf("b%d", c), graph: ch.base,
			opt: coloring{alg: "baseline", policy: "static", seed: uint32(c + 1)}, chain: c}
		req.upload(ch.base, true)
		v := req.opt.values()
		v.Set("resident", "true")
		req.query = v.Encode()
		out[c] = req
	}
	return out
}

func (in *deltaInputs) observe(r *request, fp string) {
	if r.chain >= 0 {
		in.chains[r.chain].head = fp
	}
}

// next generates connection c's next delta: 6-16 removals of present
// edges and 6-16 additions of absent ones, and on every 16th step one
// appended vertex wired to two existing vertices (within the 32 edits).
func (in *deltaInputs) next(c, k int) *request {
	ch := in.chains[c]
	m := ch.model
	r := newRNG(in.seed, 8, int64(c), int64(k))
	d := &graph.Delta{}
	for i, nr := 0, r.between(6, 16); i < nr && len(m.edges) > 0; i++ {
		e := m.edges[r.intn(len(m.edges))]
		d.RemoveEdges = append(d.RemoveEdges, e)
		m.remove(e[0], e[1])
	}
	adds := r.between(6, 16)
	if k%16 == 15 {
		nv := int32(m.n)
		d.AddVertices = 1
		m.n++
		for i := 0; i < 2; i++ {
			u := int32(r.intn(int(nv)))
			if !m.has(nv, u) {
				d.AddEdges = append(d.AddEdges, [2]int32{u, nv})
				m.add(u, nv)
			}
		}
		adds -= 2
	}
	for i := 0; i < adds; i++ {
		u, v := int32(r.intn(m.n)), int32(r.intn(m.n))
		if u == v || m.has(u, v) {
			continue
		}
		d.AddEdges = append(d.AddEdges, [2]int32{u, v})
		m.add(u, v)
	}
	ch.steps = append(ch.steps, d)
	body, err := json.Marshal(&serve.ColorRequest{
		BaseFingerprint: ch.head, AddVertices: d.AddVertices,
		AddEdges: d.AddEdges, RemoveEdges: d.RemoveEdges, IncludeColors: true,
	})
	if err != nil {
		panic(err)
	}
	return &request{conn: c, seq: k, key: fmt.Sprintf("d%d/%d", c, k), body: body, chain: c}
}
