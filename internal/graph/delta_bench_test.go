package graph_test

import (
	"math/rand"
	"testing"

	"gcolor/internal/gen"
	"gcolor/internal/graph"
)

// rmat12 is the resident base the delta serving path streams against:
// rmat:12:16, 4096 vertices.
func rmat12() *graph.Graph { return gen.RMAT(12, 16, gen.Graph500, 1) }

// BenchmarkApplyDelta applies a 32-edit delta — 16 removals of present
// edges, 16 additions of absent ones — to rmat:12:16.
func BenchmarkApplyDelta(b *testing.B) {
	g := rmat12()
	rng := rand.New(rand.NewSource(1))
	n := int32(g.NumVertices())
	d := &graph.Delta{}
	for len(d.RemoveEdges) < 16 {
		u := rng.Int31n(n)
		if nb := g.Neighbors(u); len(nb) > 0 {
			d.RemoveEdges = append(d.RemoveEdges, [2]int32{u, nb[rng.Intn(len(nb))]})
		}
	}
	for len(d.AddEdges) < 16 {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u != v && !g.HasEdge(u, v) {
			d.AddEdges = append(d.AddEdges, [2]int32{u, v})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := graph.ApplyDelta(g, d); err != nil {
			b.Fatal(err)
		}
	}
}

// fpSink keeps the benchmarked hash live.
var fpSink uint64

func BenchmarkFingerprint(b *testing.B) {
	g := rmat12()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = g.Fingerprint()
	}
}

func BenchmarkDecodeWireCSR(b *testing.B) {
	frame := graph.EncodeWireCSR(gen.GNM(2000, 6000, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.DecodeWireCSR(frame); err != nil {
			b.Fatal(err)
		}
	}
}
