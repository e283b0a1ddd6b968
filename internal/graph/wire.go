// Binary CSR wire format for the serving hot path.
//
// The text formats in io.go are convenient but expensive: every upload pays
// tokenizing, integer parsing, and a builder pass that materializes the
// adjacency twice. The wire format below carries the CSR arrays themselves,
// so ingest is a bounds-checked copy: one little-endian frame, one
// allocation for the combined offset/adjacency storage, and the content
// fingerprint returned with the graph (callers never hash it again for
// cache/idempotency keys).
//
// Frame layout (all fields little-endian):
//
//	offset  size      field
//	0       4         magic "GCSR"
//	4       2         version (currently 1)
//	6       2         flags (must be zero in version 1)
//	8       4         numVertices n (uint32)
//	12      4         numArcs m (uint32; directed arcs, i.e. 2x edges)
//	16      4*(n+1)   row_ptr (int32): arc range of v is row_ptr[v]:row_ptr[v+1]
//	...     4*m       col_idx (int32): sorted, deduplicated neighbour ids
//
// The frame is self-delimiting — its exact length is determined by the two
// counts — and the decoder rejects trailing bytes, so frames can be
// concatenated on a stream transport with no extra framing.
package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Wire-format constants. WireCSRMagic leads every frame; a decoder can sniff
// the first four bytes to distinguish a binary frame from text formats.
const (
	WireCSRMagic   = "GCSR"
	WireCSRVersion = 1

	wireCSRHeaderLen = 16
)

// WireCSRSize returns the encoded frame size for g in bytes.
func WireCSRSize(g *Graph) int {
	return wireCSRHeaderLen + 4*(g.NumVertices()+1) + 4*g.NumArcs()
}

// AppendWireCSR appends the binary CSR frame for g to dst and returns the
// extended slice. Encoding never fails: any Graph holds the invariants the
// decoder checks.
func AppendWireCSR(dst []byte, g *Graph) []byte {
	n := g.NumVertices()
	m := g.NumArcs()
	need := WireCSRSize(g)
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, WireCSRMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, WireCSRVersion)
	dst = binary.LittleEndian.AppendUint16(dst, 0) // flags
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m))
	// The zero-value Graph has a nil offsets array; on the wire it is the
	// canonical empty graph with the single row_ptr entry 0.
	if len(g.offsets) == 0 {
		dst = binary.LittleEndian.AppendUint32(dst, 0)
	}
	for _, o := range g.offsets {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(o))
	}
	for _, a := range g.adj {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(a))
	}
	return dst
}

// EncodeWireCSR returns the binary CSR frame for g.
func EncodeWireCSR(g *Graph) []byte {
	return AppendWireCSR(make([]byte, 0, WireCSRSize(g)), g)
}

// DecodeWireCSR parses a binary CSR frame, fully validating the structural
// invariants (see decodeWireCSRLimit), and returns the graph together with
// its content fingerprint, Graph.Fingerprint() of the decoded graph, so
// callers on the ingest path never hash it again.
func DecodeWireCSR(data []byte) (*Graph, uint64, error) {
	return decodeWireCSRLimit(data, MaxVertices)
}

// decodeWireCSRLimit is DecodeWireCSR with an explicit vertex cap (the fuzz
// target uses a small one so hostile counts cannot OOM the harness).
//
// Validation is the full Validate() contract — monotone row_ptr bracketing
// col_idx, neighbour ids in range and strictly increasing (sorted, no
// duplicates, no self loops), and arc symmetry — because a frame crosses a
// trust boundary: it arrives from the network, and an accepted graph flows
// straight into kernels that index with its offsets.
func decodeWireCSRLimit(data []byte, maxN int) (*Graph, uint64, error) {
	g, err := decodeCSRRows(data, maxN)
	if err != nil {
		return nil, 0, err
	}
	// Symmetry needs the full arrays, so it runs as a second pass; the
	// row-level invariants decodeCSRRows checked make it safe.
	if !symmetricCSR(g.offsets, g.adj) {
		return nil, 0, asymmetryError(g)
	}
	return g, g.Fingerprint(), nil
}

// decodeCSRRows decodes a frame's header and CSR arrays, checking every
// invariant but symmetry.
func decodeCSRRows(data []byte, maxN int) (*Graph, error) {
	if len(data) < wireCSRHeaderLen {
		return nil, fmt.Errorf("gcsr: truncated header: %d bytes, want at least %d", len(data), wireCSRHeaderLen)
	}
	if string(data[:4]) != WireCSRMagic {
		return nil, fmt.Errorf("gcsr: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != WireCSRVersion {
		return nil, fmt.Errorf("gcsr: unsupported version %d", v)
	}
	if fl := binary.LittleEndian.Uint16(data[6:8]); fl != 0 {
		return nil, fmt.Errorf("gcsr: unsupported flags %#x", fl)
	}
	n64 := int64(binary.LittleEndian.Uint32(data[8:12]))
	m64 := int64(binary.LittleEndian.Uint32(data[12:16]))
	if n64 > int64(maxN) {
		return nil, fmt.Errorf("gcsr: vertex count %d exceeds limit %d", n64, maxN)
	}
	// Arcs are bounded by the frame itself (4 bytes each), but check against
	// int32 explicitly: offsets must be representable.
	if m64 > int64(1<<31-1)-1 {
		return nil, fmt.Errorf("gcsr: arc count %d exceeds int32 range", m64)
	}
	want := int64(wireCSRHeaderLen) + 4*(n64+1) + 4*m64
	if int64(len(data)) < want {
		return nil, fmt.Errorf("gcsr: frame is %d bytes, header declares %d", len(data), want)
	}
	if int64(len(data)) > want {
		return nil, fmt.Errorf("gcsr: %d trailing bytes past declared frame end", int64(len(data))-want)
	}
	n := int(n64)
	m := int(m64)

	// Single backing allocation for both CSR arrays; the two views stay
	// alive together for the graph's lifetime anyway.
	buf := make([]int32, n+1+m)
	offsets := buf[: n+1 : n+1]
	adj := buf[n+1:]

	body := data[wireCSRHeaderLen:]
	prev := int32(0)
	for i := 0; i <= n; i++ {
		o := int32(binary.LittleEndian.Uint32(body[4*i:]))
		if i == 0 && o != 0 {
			return nil, fmt.Errorf("gcsr: row_ptr[0] = %d, want 0", o)
		}
		if o < prev {
			return nil, fmt.Errorf("gcsr: row_ptr not monotone at index %d (%d < %d)", i, o, prev)
		}
		offsets[i] = o
		prev = o
	}
	if int(offsets[n]) != m {
		return nil, fmt.Errorf("gcsr: row_ptr[n] = %d, want arc count %d", offsets[n], m)
	}
	cols := body[4*(n+1):]
	v := 0
	last := int32(-1)
	for i := 0; i < m; i++ {
		for int(offsets[v+1]) <= i {
			v++
			last = -1
		}
		a := int32(binary.LittleEndian.Uint32(cols[4*i:]))
		if a < 0 || int(a) >= n {
			return nil, fmt.Errorf("gcsr: vertex %d has out-of-range neighbour %d", v, a)
		}
		if a == int32(v) {
			return nil, fmt.Errorf("gcsr: self loop at vertex %d", v)
		}
		if a <= last {
			return nil, fmt.Errorf("gcsr: adjacency of vertex %d not strictly sorted at arc %d", v, i)
		}
		adj[i] = a
		last = a
	}
	return &Graph{offsets: offsets, adj: adj}, nil
}

// cursorPool recycles symmetricCSR's per-row cursors, so a decode
// allocates nothing for them once the pool is warm.
var cursorPool sync.Pool // *[]int32

// symmetricCSR reports whether every arc u->w of a CSR with sorted,
// duplicate-free rows has its reverse w->u, in one pass over the arcs.
// Visiting u in increasing order consumes each row w in increasing order,
// so the reverse of u->w must be the next unconsumed entry of row w. Every
// check that passes pairs an arc with a distinct reverse, and a pairing of
// all m arcs with m arcs is a bijection, so no arc is left unmatched.
func symmetricCSR(offsets, adj []int32) bool {
	n := len(offsets) - 1
	p, _ := cursorPool.Get().(*[]int32)
	if p == nil || cap(*p) < n {
		p = &[]int32{}
		*p = make([]int32, n)
	}
	defer cursorPool.Put(p)
	next := (*p)[:n]
	copy(next, offsets[:n])
	for u := 0; u < n; u++ {
		for _, w := range adj[offsets[u]:offsets[u+1]] {
			c := next[w]
			if c == offsets[w+1] || adj[c] != int32(u) {
				return false
			}
			next[w] = c + 1
		}
	}
	return true
}

// asymmetryError names the first arc, in row order, whose reverse is
// missing, found by binary search in the reverse row.
func asymmetryError(g *Graph) error {
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range g.Neighbors(int32(u)) {
			if !g.HasEdge(w, int32(u)) {
				return fmt.Errorf("gcsr: arc %d->%d has no reverse", u, w)
			}
		}
	}
	return errors.New("gcsr: adjacency is not symmetric")
}

// ConcatDisjoint packs graphs into one block-diagonal CSR: member i's
// vertices are renumbered to start at starts[i], and no arcs cross members,
// so a coloring of the union restricted to starts[i]:starts[i+1] is exactly
// a coloring of member i. starts has len(gs)+1 entries (the last is the
// total vertex count), mirroring CSR offsets.
//
// The union is built directly — every invariant Validate() checks composes
// under disjoint union, so no re-validation pass is needed. Panics if the
// combined size overflows int32 (callers bound batch sizes far below that).
func ConcatDisjoint(gs ...*Graph) (*Graph, []int32) {
	var totalN, totalM int64
	for _, g := range gs {
		totalN += int64(g.NumVertices())
		totalM += int64(g.NumArcs())
	}
	if totalN+1 > 1<<31-1 || totalM > 1<<31-1 {
		panic(fmt.Sprintf("graph: disjoint union of %d vertices / %d arcs overflows int32", totalN, totalM))
	}
	offsets := make([]int32, totalN+1)
	adj := make([]int32, totalM)
	starts := make([]int32, len(gs)+1)
	vOff, aOff := int32(0), int32(0)
	for i, g := range gs {
		starts[i] = vOff
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			offsets[int(vOff)+v] = aOff + g.offsets[v]
		}
		for j, a := range g.adj {
			adj[int(aOff)+j] = a + vOff
		}
		vOff += int32(n)
		aOff += int32(len(g.adj))
	}
	offsets[totalN] = aOff
	starts[len(gs)] = vOff
	return &Graph{offsets: offsets, adj: adj}, starts
}
