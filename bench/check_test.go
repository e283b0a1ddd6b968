package main

import (
	"testing"

	"gcolor/internal/graph"
	"gcolor/internal/serve"
)

// kept builds an answer whose coloring the checker verifies in full.
func kept(key string, g *graph.Graph, colors []int32) *answer {
	return &answer{key: key, graph: g, chain: -1, colors: colors, hash: hashColors(colors),
		res: serve.ColorResponse{NumColors: maxPlusOne(colors), Fingerprint: graph.FingerprintString(g.Fingerprint())}}
}

// replayOf is a later answer under key that kept only its colors' hash.
func replayOf(key string, colors []int32) *answer {
	return &answer{key: key, chain: -1, retry: true, hash: hashColors(colors)}
}

func TestCheckerCountsImproperColoringAndMismatchedReplay(t *testing.T) {
	g := mustSpec("path:4") // 0-1-2-3
	rr := &runResult{}
	rr.answers[0] = []*answer{
		kept("bad", g, []int32{0, 1, 1, 0}), // edge 1-2 is monochromatic
		kept("good", g, []int32{0, 1, 0, 1}),
		replayOf("good", []int32{1, 0, 1, 0}), // proper, but not the first answer's bytes
	}
	ck := newChecker()
	ck.answers(nil, rr)
	if len(ck.violations) != 2 {
		t.Fatalf("got %d violations, want 2 (improper coloring, mismatched replay): %q", len(ck.violations), ck.violations)
	}
}

func TestCheckerAcceptsProperColoringsAndIdenticalReplays(t *testing.T) {
	g := mustSpec("grid:3:3")
	colors := []int32{0, 1, 0, 1, 0, 1, 0, 1, 0}
	warm := []*answer{kept("w", g, colors)}
	rr := &runResult{}
	rr.answers[1] = []*answer{replayOf("w", colors), kept("x", g, colors), replayOf("x", colors)}
	ck := newChecker()
	ck.answers(warm, rr)
	if len(ck.violations) != 0 {
		t.Fatalf("unexpected violations: %q", ck.violations)
	}
}

func TestCheckerCountsDeltaAnswerImproperForModel(t *testing.T) {
	base := mustSpec("path:3") // 0-1-2
	in := &deltaInputs{}
	in.chains[0] = &chain{base: base, steps: []*graph.Delta{{AddEdges: [][2]int32{{0, 2}}}}}
	head := kept("b0", base, []int32{0, 1, 0})
	head.chain = 0
	// The answer leaves 0 and 2 both colored 0 although the step joined them.
	step := &answer{key: "d0/0", chain: 0, res: serve.ColorResponse{NumColors: 2, Vertices: 3, Edges: 3}}
	rr := &runResult{}
	rr.answers[0] = []*answer{step}
	ck := newChecker()
	ck.chains(in, []*answer{head}, rr)
	if len(ck.violations) != 1 {
		t.Fatalf("got %d violations, want 1: %q", len(ck.violations), ck.violations)
	}
}
