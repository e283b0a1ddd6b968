package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// The fuzz targets drive the text parsers with arbitrary bytes through the
// small-cap variants (so a hostile size declaration cannot OOM the fuzzing
// harness) and hold two invariants: the parser never panics, and any graph
// it does accept passes the full CSR structural validation.

const fuzzMaxVertices = 1 << 16

// FuzzReadEdgeList drives both edge-list entry points — the reader, also
// fed one byte per Read so lines straddle buffer refills, and the string
// parser — and requires each to match readEdgeListReference exactly: the
// same accept or reject, the same error text, the same graph. A reader
// that fails after the text must fail the same way in both readers.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n2 0\n")
	f.Add("# n 6\n0 1\n")
	f.Add("# comment\n% comment\n\n3 4\n")
	f.Add("-1 2\n")
	f.Add("0 99999999999999999999\n")
	f.Add("# n 999999999\n")
	f.Add("0\n")
	f.Add("a b c\n")
	f.Add("0 1\r\n1 2\r\n\r\n")
	f.Add("0\v1\n1\f2\n\v\f\n")
	f.Add("0\u00a01\n1\u00852\n\u00a0# n 9\n")
	f.Add("0 1\u00a0x\n2\xc2 3\n")
	f.Add("+5 -0\n007 +0008\n")
	f.Add("0 2147483647\n")
	f.Add("0 2147483648\n")
	f.Add("1 2 3 4\nx 1\n")
	f.Add("# n 65537\n0 1\n")
	f.Add("#% #n  12 \n# n 3 4\n#\tn 5\n")
	f.Add("0 1\n2")
	f.Fuzz(func(t *testing.T, in string) {
		want, werr := readEdgeListReference(strings.NewReader(in), fuzzMaxVertices)
		for _, p := range []struct {
			name  string
			parse func() (*Graph, error)
		}{
			{"reader", func() (*Graph, error) { return readEdgeListLimit(strings.NewReader(in), fuzzMaxVertices) }},
			{"one-byte reader", func() (*Graph, error) {
				return readEdgeListLimit(iotest.OneByteReader(strings.NewReader(in)), fuzzMaxVertices)
			}},
			{"string", func() (*Graph, error) { return parseEdgeListLimit(in, fuzzMaxVertices) }},
		} {
			g, err := p.parse()
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, reference %v\ninput: %q", p.name, err, werr, in)
			}
			if err == nil && !sameGraph(g, want) {
				t.Fatalf("%s: graph differs from the reference\ninput: %q", p.name, in)
			}
		}
		failing := func() io.Reader {
			return io.MultiReader(strings.NewReader(in), iotest.ErrReader(errors.New("read failed")))
		}
		_, ferr := readEdgeListLimit(failing(), fuzzMaxVertices)
		if _, wferr := readEdgeListReference(failing(), fuzzMaxVertices); fmt.Sprint(ferr) != fmt.Sprint(wferr) {
			t.Fatalf("failing reader: error %v, reference %v\ninput: %q", ferr, wferr, in)
		}
		if werr != nil {
			return
		}
		if verr := want.Validate(); verr != nil {
			t.Fatalf("accepted input built an invalid graph: %v\ninput: %q", verr, in)
		}
		if want.NumVertices() > fuzzMaxVertices {
			t.Fatalf("vertex count %d exceeds the cap", want.NumVertices())
		}
	})
}

func FuzzDIMACS(f *testing.F) {
	f.Add("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
	f.Add("c comment\np edge 2 1\ne 1 2\n")
	f.Add("p edge 0 0\n")
	f.Add("e 1 2\n")
	f.Add("p edge 2 1\ne 1 3\n")
	f.Add("p edge x y\n")
	f.Add("p edge 999999999 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := readDIMACSLimit(strings.NewReader(in), fuzzMaxVertices)
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted input built an invalid graph: %v\ninput: %q", verr, in)
		}
	})
}

// FuzzWireCSR drives the binary CSR decoder with arbitrary frames through
// the small-cap variant. Invariants: never panic, never over-allocate past
// the cap, accept, reject and error text exactly as decodeWireCSRReference
// does, any accepted frame passes full structural validation, and the
// streaming fingerprint matches the canonical Graph.Fingerprint().
func FuzzWireCSR(f *testing.F) {
	// Valid frames as mutation seeds: empty graph, a triangle, a path with
	// isolated tail vertices.
	for _, text := range []string{"", "0 1\n1 2\n2 0\n", "# n 6\n0 1\n1 2\n"} {
		g, err := readEdgeListLimit(strings.NewReader(text), fuzzMaxVertices)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeWireCSR(g))
	}
	f.Add([]byte("GCSR"))                                                 // truncated header
	f.Add([]byte("GCSR\x01\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00")) // huge n, no body
	f.Add([]byte{})
	// Asymmetric frames: a lone arc; a missing reverse the row-order scan
	// meets before the arc the reference names (1->2 reads row 2's 0,
	// while 2->0 is the arc without a reverse); and an arc 1->2 that finds
	// row 2 used up, where the next entry in memory, row 3's, is a 1.
	f.Add(csrFrame([]int32{0, 1, 1}, []int32{1}))
	f.Add(csrFrame([]int32{0, 0, 1, 3}, []int32{2, 0, 1}))
	f.Add(csrFrame([]int32{0, 1, 3, 4, 5}, []int32{2, 2, 3, 0, 1}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		g, fp, err := decodeWireCSRLimit(frame, fuzzMaxVertices)
		want, wfp, werr := decodeWireCSRReference(frame, fuzzMaxVertices)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("error %v, reference %v", err, werr)
		}
		if err != nil {
			return
		}
		if !sameGraph(g, want) || fp != wfp {
			t.Fatalf("decoded graph or fingerprint differs from the reference")
		}
		if g.NumVertices() > fuzzMaxVertices {
			t.Fatalf("vertex count %d exceeds the cap", g.NumVertices())
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted frame built an invalid graph: %v", verr)
		}
		if want := g.Fingerprint(); fp != want {
			t.Fatalf("streaming fingerprint %016x != canonical %016x", fp, want)
		}
	})
}

// csrFrame encodes raw CSR arrays as a wire frame without checking them.
func csrFrame(offsets, cols []int32) []byte {
	b := []byte(WireCSRMagic)
	b = binary.LittleEndian.AppendUint16(b, WireCSRVersion)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(offsets)-1))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cols)))
	for _, x := range append(slices.Clone(offsets), cols...) {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// FuzzApplyDelta turns arbitrary bytes into a small graph and a valid
// delta against it. Invariants: the successor equals the graph rebuilt
// from the edited edge set, it passes full structural validation, its
// fingerprint is Graph.Fingerprint(), and offsets, adjacency and frontier
// match the whole-graph reference merge.
//
// Layout: n, appended vertices, base edge count k, k (u, v) base edge
// pairs, then (op, u, v) edits — odd op adds, even op removes.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 3, 0, 1, 1, 2, 2, 3, 1, 0, 3, 0, 1, 2})
	f.Add([]byte{8, 2, 4, 0, 1, 0, 7, 6, 7, 3, 4, 1, 8, 9, 1, 0, 8, 0, 7, 0, 2, 9, 8})
	f.Add([]byte{3, 3, 0, 1, 3, 5, 0, 4, 3, 1, 0, 2})
	f.Add([]byte{6, 2, 3, 0, 1, 1, 2, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n, addV, k := at(0)%33, at(1)%4, at(2)%64
		var edges [][2]int32
		i := 3
		for ; i+1 < len(data) && len(edges) < k && n > 0; i += 2 {
			edges = append(edges, [2]int32{int32(at(i) % n), int32(at(i+1) % n)})
		}
		base := FromEdges(n, edges)
		d := &Delta{AddVertices: addV}
		newN := n + addV
		for ; i+2 < len(data) && newN > 1; i += 3 {
			e := [2]int32{int32(at(i+1) % newN), int32(at(i+2) % newN)}
			if e[0] == e[1] {
				continue
			}
			if at(i)%2 == 1 {
				d.AddEdges = append(d.AddEdges, e)
			} else {
				d.RemoveEdges = append(d.RemoveEdges, e)
			}
		}

		ng, fp, frontier, err := ApplyDelta(base, d)
		if err != nil {
			t.Fatalf("valid delta rejected: %v", err)
		}
		if verr := ng.Validate(); verr != nil {
			t.Fatalf("successor invalid: %v", verr)
		}
		var want [][2]int32
		for e := range applyOracle(rebuildEdges(base), d) {
			want = append(want, e)
		}
		if ref := FromEdges(newN, want); !sameGraph(ng, ref) {
			t.Fatalf("successor differs from the rebuilt edge set")
		}
		if got := ng.Fingerprint(); fp != got {
			t.Fatalf("returned fingerprint %016x != Fingerprint() %016x", fp, got)
		}
		rg, rfp, rfrontier, err := applyDeltaReference(base, d)
		if err != nil {
			t.Fatalf("reference rejected the delta: %v", err)
		}
		if !slices.Equal(ng.offsets, rg.offsets) || !slices.Equal(ng.adj, rg.adj) || fp != rfp || !slices.Equal(frontier, rfrontier) {
			t.Fatalf("differs from the reference merge: frontier %v, reference %v", frontier, rfrontier)
		}
	})
}

func FuzzMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n-5 -5 1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := readMatrixMarketLimit(strings.NewReader(in), fuzzMaxVertices)
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted input built an invalid graph: %v\ninput: %q", verr, in)
		}
	})
}
