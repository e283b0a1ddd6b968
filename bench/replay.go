package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
	"gcolor/internal/simt"
)

// replayer re-runs a deterministic sample of the traced run's executed
// colorings once through the lower layers' public functions, so execution
// time splits by layer. Every replay span has req -1.
type replayer struct {
	rec     *recorder
	devices int // the serving pool's device count (shard replays)
	jrnl    *journal.Journal

	laneOps, bytesMoved, simd []float64
	colorNS, opsTotal         float64
	colorings                 int
	mismatches                int      // replays whose colors or cycles differ from the served answer
	details                   []string // what each mismatch was
}

func (rp *replayer) mismatch(format string, args ...any) {
	rp.mismatches++
	rp.details = append(rp.details, fmt.Sprintf(format, args...))
}

// poolDevice is shaped like a serving pool device: simulator workers are
// the host cores divided among the pool's devices.
func (rp *replayer) poolDevice(policy string) *simt.Device {
	dev := simt.NewDevice()
	dev.Workers = max(1, runtime.GOMAXPROCS(0)/rp.devices)
	pol, _ := serve.ParseSchedPolicy(policy) // the request already parsed it once
	dev.Policy = pol
	return dev
}

func (rp *replayer) timed(name string, fn func()) time.Duration {
	sp := rp.rec.begin(name, -1, -1)
	fn()
	return rp.rec.end(sp)
}

// coloring replays one executed, fully kept answer: decode of its upload,
// fingerprint, the device or sharded coloring, Verify, and one journal
// accept plus completion.
func (rp *replayer) coloring(a *answer) error {
	g := graphOf(a)
	if a.binary {
		frame := graph.EncodeWireCSR(g)
		rp.timed("graph.decode", func() { _, _, _ = graph.DecodeWireCSR(frame) })
	} else {
		var text bytes.Buffer
		if err := graph.WriteEdgeList(&text, g); err != nil {
			return err
		}
		rp.timed("graph.decode", func() { _, _ = graph.ReadEdgeList(strings.NewReader(text.String())) })
	}
	rp.timed("graph.fingerprint", func() { g.Fingerprint() })

	alg, err := gpucolor.ParseAlgorithm(a.opt.alg)
	if err != nil {
		return err
	}
	ropt := gpucolor.ResilientOptions{Options: gpucolor.Options{Seed: a.opt.seed}}
	var colors []int32
	if a.res.Shards > 1 {
		devs := make([]*simt.Device, rp.devices)
		for i := range devs {
			devs[i] = rp.poolDevice(a.opt.policy)
		}
		var res *shard.Result
		rp.timed("shard.color_devices", func() {
			res, err = shard.ColorDevices(context.Background(), devs, g, alg, shard.Options{K: a.res.Shards, Seed: a.opt.seed}, ropt)
		})
		if err != nil {
			return fmt.Errorf("replay shard %s: %w", a.key, err)
		}
		colors = res.Colors
	} else {
		dev := rp.poolDevice(a.opt.policy)
		rn := gpucolor.NewRunner(dev)
		var out *gpucolor.Outcome
		d := rp.timed("gpucolor.color", func() { out, err = rn.ColorContext(context.Background(), g, alg, ropt) })
		rn.Release()
		if err != nil {
			return fmt.Errorf("replay %s: %w", a.key, err)
		}
		colors = out.Colors
		ops := float64(out.ALUOps + out.MemAccesses + out.Atomics)
		rp.laneOps = append(rp.laneOps, ops)
		rp.bytesMoved = append(rp.bytesMoved, float64(out.MemTransactions)*float64(dev.Cost.SegmentElems)*4)
		rp.simd = append(rp.simd, out.SIMDUtilization())
		rp.colorNS += float64(d.Nanoseconds())
		rp.opsTotal += ops
		rp.colorings++
		if out.Cycles != a.res.Cycles {
			rp.mismatch("%s: replayed %d cycles, served %d (batched %v)", a.key, out.Cycles, a.res.Cycles, a.res.Batched)
		}
	}
	if hashColors(colors) != a.hash {
		rp.mismatch("%s: replayed colors differ from served (shards %d)", a.key, a.res.Shards)
	}
	rp.timed("color.verify", func() { err = color.Verify(g, a.colors) })
	if err != nil {
		return fmt.Errorf("replay verify %s: %w", a.key, err)
	}
	// The server journals a JSON upload as sent and a binary one inside a
	// base64 envelope.
	wire := jsonUpload(g, a.opt)
	if a.binary {
		wire, err = json.Marshal(&serve.ColorRequest{GraphCSRB64: base64.StdEncoding.EncodeToString(graph.EncodeWireCSR(g)),
			Alg: a.opt.alg, Policy: a.opt.policy, Seed: a.opt.seed, IncludeColors: true})
		if err != nil {
			return err
		}
	}
	return rp.journal(a, g.Fingerprint(), wire, a.colors, false)
}

// journal appends one accept and one completion record shaped like the
// server's for answer a, timed together.
func (rp *replayer) journal(a *answer, fp uint64, wire []byte, colors []int32, resident bool) error {
	if rp.jrnl == nil {
		return nil
	}
	id := fmt.Sprintf("replay-%d-%d", a.conn, a.seq)
	now := time.Now().UnixMilli()
	acc := journal.AcceptRecord{ID: id, IdemKey: a.idemKey, Fingerprint: fp, AcceptedUnixMS: now, Resident: resident, Wire: wire}
	done := journal.CompleteRecord{ID: id, IdemKey: a.idemKey, Fingerprint: fp, Disposition: journal.DispOK,
		NumColors: a.res.NumColors, ColorsB64: journal.EncodeColors(colors), Cycles: a.res.Cycles,
		Iterations: a.res.Iterations, CompletedUnixMS: now}
	var err error
	rp.timed("journal.append", func() {
		if err = rp.jrnl.AppendAccept(acc); err == nil {
			err = rp.jrnl.AppendComplete(done)
		}
	})
	return err
}

// chain replays the first steps of one delta chain: graph.ApplyDelta on
// the previous version, color.RecolorFrontier from the previous answer's
// colors, and Verify, each compared with what the server answered.
func (rp *replayer) chain(ch *chain, head *answer, steps []*answer) error {
	g, colors := ch.base, append([]int32(nil), head.colors...)
	sc := &color.Scratch{}
	for i, a := range steps {
		var (
			ng       *graph.Graph
			fp       uint64
			frontier []int32
			err      error
		)
		rp.timed("graph.apply_delta", func() { ng, fp, frontier, err = graph.ApplyDelta(g, ch.steps[i]) })
		if err != nil {
			return fmt.Errorf("replay %s: %w", a.key, err)
		}
		next := make([]int32, ng.NumVertices())
		copy(next, colors)
		for v := len(colors); v < len(next); v++ {
			next[v] = color.Uncolored
		}
		rp.timed("color.recolor_frontier", func() { color.RecolorFrontier(ng, next, frontier, sc) })
		rp.timed("color.verify", func() { err = color.Verify(ng, next) })
		if err != nil {
			return fmt.Errorf("replay verify %s: %w", a.key, err)
		}
		if graph.FingerprintString(fp) != a.res.Fingerprint || hashColors(next) != a.hash {
			rp.mismatch("%s: replayed successor or colors differ from served", a.key)
		}
		d := ch.steps[i]
		wire, err := json.Marshal(&serve.ColorRequest{BaseFingerprint: a.res.BaseFingerprint, AddVertices: d.AddVertices,
			AddEdges: d.AddEdges, RemoveEdges: d.RemoveEdges, IncludeColors: true})
		if err != nil {
			return err
		}
		if err := rp.journal(a, fp, wire, next, true); err != nil {
			return err
		}
		g, colors = ng, next
	}
	return nil
}
