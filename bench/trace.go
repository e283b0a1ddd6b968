package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/serve"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req (conn<<32 | seq); replay spans have req -1.
type span struct {
	name       string
	req        int64
	parent     int32 // index in the recorder, -1 for a root
	start, end time.Duration
}

// recorder keeps one connection's spans in memory; they are written out
// when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<15)}
}

func (r *recorder) begin(name string, req int64, parent int32) int32 {
	r.spans = append(r.spans, span{name: name, req: req, parent: parent, start: time.Since(r.epoch)})
	return int32(len(r.spans) - 1)
}

// end closes span i and returns its duration.
func (r *recorder) end(i int32) time.Duration {
	r.spans[i].end = time.Since(r.epoch)
	return r.spans[i].end - r.spans[i].start
}

// child records a span whose duration a layer reported rather than the
// benchmark measured (a response's queue wait and execution time), placed
// at the end of its parent.
func (r *recorder) child(name string, parent int32, d time.Duration, endAt time.Duration) {
	if d <= 0 {
		return
	}
	p := r.spans[parent]
	r.spans = append(r.spans, span{name: name, req: p.req, parent: parent, start: endAt - d, end: endAt})
}

func reqID(c, seq int) int64 { return int64(c)<<32 | int64(uint32(seq)) }

// tracer drives a stack in-process through the same public steps its
// HTTP handler takes (decode, fingerprint, Submit, encode), recording a
// span around each.
type tracer struct {
	st     *stack
	recs   [connections]*recorder
	bufs   [connections]bytes.Buffer
	fronts [connections][]float64 // serve.Submit self time, µs
	hops   [connections][]float64 // coordinator self time of routed jobs, µs
}

func newTracer(st *stack) *tracer {
	t := &tracer{st: st}
	epoch := time.Now()
	for c := range t.recs {
		t.recs[c] = newRecorder(epoch)
	}
	return t
}

func (t *tracer) send(c int, req *request) (*serve.ColorResponse, time.Duration, error) {
	if t.st.coord != nil {
		return t.sendFleet(c, req)
	}
	return t.sendServe(c, req)
}

func serveRequest(g *graph.Graph, fp uint64, o coloring, resident bool) (*serve.Request, error) {
	alg, err := gpucolor.ParseAlgorithm(o.alg)
	if err != nil {
		return nil, err
	}
	pol, err := serve.ParseSchedPolicy(o.policy)
	if err != nil {
		return nil, err
	}
	return &serve.Request{Graph: g, Fingerprint: fp, Algorithm: alg, Policy: pol, Seed: o.seed, Resident: resident}, nil
}

// decode turns the wire request into a serve.Request as the handler does.
func (t *tracer) decode(rec *recorder, id int64, root int32, req *request) (*serve.Request, *graph.Graph, error) {
	if req.binary {
		sp := rec.begin("graph.decode", id, root)
		g, fp, err := graph.DecodeWireCSR(req.body)
		rec.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = rec.begin("serve.decode_envelope", id, root)
		defer rec.end(sp)
		q, err := url.ParseQuery(req.query)
		if err != nil {
			return nil, nil, err
		}
		seed, err := strconv.ParseUint(q.Get("seed"), 10, 32)
		if err != nil {
			return nil, nil, err
		}
		o := coloring{alg: q.Get("alg"), policy: q.Get("policy"), seed: uint32(seed)}
		sr, err := serveRequest(g, fp, o, q.Get("resident") == "true")
		if err != nil {
			return nil, nil, err
		}
		if t.st.jrnl != nil {
			// A journaled binary upload carries its frame base64-wrapped in
			// the replay envelope, exactly as the handler builds it.
			sr.Wire, err = json.Marshal(&serve.ColorRequest{GraphCSRB64: base64.StdEncoding.EncodeToString(req.body),
				Alg: o.alg, Policy: o.policy, Seed: o.seed, IncludeColors: true})
		}
		return sr, g, err
	}
	sp := rec.begin("serve.decode_envelope", id, root)
	var cr serve.ColorRequest
	err := json.Unmarshal(req.body, &cr)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if cr.BaseFingerprint != "" {
		base, err := serve.ParseFingerprint(cr.BaseFingerprint)
		if err != nil {
			return nil, nil, err
		}
		d := &graph.Delta{AddVertices: cr.AddVertices, AddEdges: cr.AddEdges, RemoveEdges: cr.RemoveEdges}
		return &serve.Request{BaseFingerprint: base, Delta: d, Wire: req.body}, nil, nil
	}
	sp = rec.begin("graph.decode", id, root)
	g, err := graph.ReadEdgeList(strings.NewReader(cr.Graph))
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = rec.begin("graph.fingerprint", id, root)
	fp := g.Fingerprint()
	rec.end(sp)
	sr, err := serveRequest(g, fp, coloring{alg: cr.Alg, policy: cr.Policy, seed: cr.Seed}, cr.Resident)
	if err != nil {
		return nil, nil, err
	}
	sr.Wire = req.body
	return sr, g, nil
}

// colorResponse builds the handler's JSON reply, colors included.
func colorResponse(res *serve.Response, g *graph.Graph, req *serve.Request) *serve.ColorResponse {
	out := &serve.ColorResponse{
		Fingerprint: graph.FingerprintString(res.Fingerprint), NumColors: res.NumColors, Colors: res.Colors,
		Vertices: res.Vertices, Edges: res.Edges,
		Cycles: res.Cycles, Iterations: res.Iterations, Recovery: res.Recovery.String(),
		Attempts: res.Attempts, Repaired: res.Repaired,
		Cached: res.Cached, Coalesced: res.Coalesced, Hedged: res.Hedged, Batched: res.Batched,
		BatchSize: res.BatchSize, Device: res.Device,
		WaitUS: res.Wait.Microseconds(), ExecUS: res.Exec.Microseconds(),
		RequestID: res.RequestID, IdempotentReplay: res.IdempotentReplay,
	}
	if g != nil {
		out.Vertices, out.Edges = g.NumVertices(), g.NumEdges()
	}
	if res.Shards > 1 {
		out.Shards, out.ShardConflicts = res.Shards, res.ShardConflicts
		out.ShardRepairRounds, out.ShardRecolored = res.ShardRepairRounds, res.ShardRecolored
	}
	if res.Delta {
		out.Delta, out.FrontierSize, out.DeltaFallback = true, res.FrontierSize, res.DeltaFallback
	}
	if req.BaseFingerprint != 0 {
		out.BaseFingerprint = graph.FingerprintString(req.BaseFingerprint)
	}
	return out
}

// execChildren records the queue wait and execution time a response
// reports as children of the span that waited for them.
func execChildren(rec *recorder, parent int32, wait, exec time.Duration, hostRecolor bool) {
	end := rec.spans[parent].end
	name := "device.exec"
	if hostRecolor {
		name = "color.recolor"
	}
	rec.child(name, parent, exec, end)
	rec.child("queue.wait", parent, wait, end-exec)
}

func (t *tracer) sendServe(c int, req *request) (*serve.ColorResponse, time.Duration, error) {
	rec := t.recs[c]
	id := reqID(c, req.seq)
	root := rec.begin("request", id, -1)
	sr, g, err := t.decode(rec, id, root, req)
	if err != nil {
		return nil, rec.end(root), err
	}
	sr.RequestID = fmt.Sprintf("t%d-%d", c, req.seq)
	sr.IdemKey = req.idemKey
	sp := rec.begin("serve.submit", id, root)
	res, err := t.st.srv.Submit(context.Background(), sr)
	d := rec.end(sp)
	if err != nil {
		return nil, rec.end(root), err
	}
	execChildren(rec, sp, res.Wait, res.Exec, res.Delta && !res.DeltaFallback)
	t.fronts[c] = append(t.fronts[c], micros(d-res.Wait-res.Exec))
	sp = rec.begin("serve.encode", id, root)
	out := colorResponse(res, g, sr)
	t.bufs[c].Reset()
	err = json.NewEncoder(&t.bufs[c]).Encode(out)
	rec.end(sp)
	return out, rec.end(root), err
}

func (t *tracer) sendFleet(c int, req *request) (*serve.ColorResponse, time.Duration, error) {
	rec := t.recs[c]
	id := reqID(c, req.seq)
	root := rec.begin("request", id, -1)
	sp := rec.begin("serve.decode_envelope", id, root)
	var cr serve.ColorRequest
	err := json.Unmarshal(req.body, &cr)
	rec.end(sp)
	if err != nil {
		return nil, rec.end(root), err
	}
	sp = rec.begin("cluster.submit", id, root)
	res, err := t.st.coord.Submit(context.Background(), &cr, fmt.Sprintf("t%d-%d", c, req.seq), req.idemKey, req.body)
	d := rec.end(sp)
	if err != nil {
		return nil, rec.end(root), err
	}
	if !res.Cached && !res.IdempotentReplay && !res.Scattered && res.Worker != "" {
		wait := time.Duration(res.WaitUS) * time.Microsecond
		exec := time.Duration(res.ExecUS) * time.Microsecond
		execChildren(rec, sp, wait, exec, false)
		t.hops[c] = append(t.hops[c], micros(d-wait-exec))
	}
	sp = rec.begin("serve.encode", id, root)
	t.bufs[c].Reset()
	err = json.NewEncoder(&t.bufs[c]).Encode(res)
	rec.end(sp)
	return res, rec.end(root), err
}

// layerOf maps a span name to the layer its self time is charged to.
func layerOf(name string) string {
	if name == "request" {
		return "client"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfLayers are the layers self time is reported for.
var selfLayers = []string{"client", "graph", "serve", "queue", "device", "color", "cluster"}

// selfTimes returns request-path self time per layer: each span's
// duration minus the part its children cover. Replay spans are excluded.
func selfTimes(recs []*recorder) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, r := range recs {
		kids := make([]time.Duration, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				kids[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			if s.req >= 0 {
				out[layerOf(s.name)] += s.end - s.start - kids[i]
			}
		}
	}
	return out
}

// spanMedians returns the median duration in µs of every span name.
func spanMedians(recs []*recorder) map[string]float64 {
	byName := make(map[string][]float64)
	for _, r := range recs {
		for _, s := range r.spans {
			byName[s.name] = append(byName[s.name], micros(s.end-s.start))
		}
	}
	out := make(map[string]float64, len(byName))
	for n, xs := range byName {
		out[n] = median(xs)
	}
	return out
}

// writeSpans writes every span as Chrome trace JSON (one track per
// connection, replay on its own track).
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	first := true
	for tid, r := range recs {
		for i, s := range r.spans {
			if !first {
				fmt.Fprint(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"req":%d,"id":%d,"parent":%d}}`,
				s.name, tid, micros(s.start), micros(s.end-s.start), s.req, i, s.parent)
		}
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// topLayer returns the layer with the largest share of self time.
func topLayer(m map[string]float64) (string, float64) {
	best := selfLayers[0]
	for _, l := range selfLayers[1:] {
		if m["self_share."+l] > m["self_share."+best] {
			best = l
		}
	}
	return best, m["self_share."+best]
}

func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
