// Graph mutation deltas for the incremental serving path.
//
// A Delta is a small edit script against a base graph: vertices appended,
// undirected edges added, undirected edges removed. ApplyDelta materializes
// the successor CSR and reports the *frontier* — the vertex set whose
// neighbourhoods actually changed — which is exactly the set an incremental
// recolorer must revisit: endpoints of effective edge additions (a new
// adjacency can conflict), freshly appended vertices (uncolored), and
// endpoints of effective removals (their palette may shrink, so recoloring
// them can only improve the coloring). Everything outside the frontier
// keeps both its adjacency and, downstream, its color.
//
// The build costs what the delta edits: only rows that are the source of an
// edited arc, or appended, are merged; every run of untouched rows between
// them is one copy of its adjacency with its offsets shifted by the net arc
// change so far. The successor's fingerprint is Graph.Fingerprint() of the
// result — the one whole-graph pass left — so a version chain's identity
// collapses to content identity: a delta-produced graph and a from-scratch
// upload of the same graph share cache, coalescing, and routing keys.
package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Delta is one edit script against a base graph. Add/remove lists hold
// undirected edges in either endpoint order; duplicates are tolerated and
// collapse. Removing an absent edge and adding a present one are no-ops
// (they do not enter the frontier). An edge present in both lists is
// treated as remove-then-add: present in the successor, not a change.
type Delta struct {
	// AddVertices appends this many isolated vertices (ids n..n+k-1).
	AddVertices int
	// AddEdges / RemoveEdges are undirected edge lists. Added edges may
	// touch the appended vertices; self loops are rejected.
	AddEdges    [][2]int32
	RemoveEdges [][2]int32
}

// Size returns the number of edge operations in the delta.
func (d *Delta) Size() int { return len(d.AddEdges) + len(d.RemoveEdges) }

// ApplyDelta builds the successor graph of g under d. It returns the new
// graph, its content fingerprint (equal to ng.Fingerprint()), and the
// sorted, deduplicated frontier of vertices whose adjacency changed
// (including every appended vertex). g is not modified; the successor
// shares no storage with it.
func ApplyDelta(g *Graph, d *Delta) (*Graph, uint64, []int32, error) {
	n := g.NumVertices()
	if d.AddVertices < 0 {
		return nil, 0, nil, fmt.Errorf("graph: delta: negative AddVertices %d", d.AddVertices)
	}
	newN := n + d.AddVertices
	if newN > MaxVertices {
		return nil, 0, nil, fmt.Errorf("graph: delta: %d vertices exceeds limit %d", newN, MaxVertices)
	}

	// Canonicalize the edit lists into directed arc lists (both directions
	// of every undirected edge), sorted by (src, dst), deduplicated.
	addArcs, err := deltaArcs(d.AddEdges, newN, "add")
	if err != nil {
		return nil, 0, nil, err
	}
	remArcs, err := deltaArcs(d.RemoveEdges, newN, "remove")
	if err != nil {
		return nil, 0, nil, err
	}

	// Successor arc count: walk both lists once against the base to count
	// effective operations, collecting the frontier as we go. An add is
	// effective iff the arc is absent from the base; a remove iff present
	// in the base and not re-added. Sources past the base are appended
	// vertices, which all join the frontier at the end.
	frontier := make([]int32, 0, 2*d.Size()+d.AddVertices)
	effAdd := 0
	for _, a := range addArcs {
		if int(a[0]) >= n {
			effAdd++
		} else if !g.HasEdge(a[0], a[1]) {
			effAdd++
			frontier = append(frontier, a[0])
		}
	}
	effRem := 0
	for _, r := range remArcs {
		if int(r[0]) < n && g.HasEdge(r[0], r[1]) && !arcListHas(addArcs, r) {
			effRem++
			frontier = append(frontier, r[0])
		}
	}
	slices.Sort(frontier)
	frontier = slices.Compact(frontier)
	for v := n; v < newN; v++ {
		frontier = append(frontier, int32(v))
	}
	newM := g.NumArcs() + effAdd - effRem
	if int64(newN)+1+int64(newM) > 1<<31-1 {
		return nil, 0, nil, fmt.Errorf("graph: delta: %d arcs overflows int32", newM)
	}

	// Build pass. A row can change only if it is the source of an arc in
	// either list, or appended; those rows are merged, and each run of
	// untouched base rows before one is copied whole.
	buf := make([]int32, newN+1+newM)
	offsets := buf[: newN+1 : newN+1]
	adj := buf[newN+1 : newN+1]
	ai, ri := 0, 0
	for v := 0; v < newN; v++ {
		next := n // the next edited row; every row past the base is one
		if ai < len(addArcs) {
			next = min(next, int(addArcs[ai][0]))
		}
		if ri < len(remArcs) {
			next = min(next, int(remArcs[ri][0]))
		}
		if next > v {
			lo, hi := g.offsets[v], g.offsets[next]
			shift := int32(len(adj)) - lo
			for u := v; u < next; u++ {
				offsets[u] = g.offsets[u] + shift
			}
			adj = append(adj, g.adj[lo:hi]...)
			if v = next; v == newN {
				break
			}
		}
		aj, rj := ai, ri
		for aj < len(addArcs) && int(addArcs[aj][0]) == v {
			aj++
		}
		for rj < len(remArcs) && int(remArcs[rj][0]) == v {
			rj++
		}
		var base []int32
		if v < n {
			base = g.Neighbors(int32(v))
		}
		offsets[v] = int32(len(adj))
		adj = mergeRow(adj, base, addArcs[ai:aj], remArcs[ri:rj])
		ai, ri = aj, rj
	}
	offsets[newN] = int32(len(adj))
	if len(adj) != newM {
		// Counting and merging disagree only on a bug in this file.
		panic(fmt.Sprintf("graph: delta: merged %d arcs, counted %d", len(adj), newM))
	}

	ng := &Graph{offsets: offsets, adj: adj}
	return ng, ng.Fingerprint(), frontier, nil
}

// mergeRow appends one successor row to dst: (base ∪ adds) \ (rems \ adds),
// where adds and rems are the row's arcs. All three are sorted by
// destination.
func mergeRow(dst, base []int32, adds, rems [][2]int32) []int32 {
	bi, ai, ri := 0, 0, 0
	for bi < len(base) || ai < len(adds) {
		var next int32
		fromAdd := false
		if bi < len(base) && (ai >= len(adds) || base[bi] <= adds[ai][1]) {
			next = base[bi]
			if ai < len(adds) && adds[ai][1] == next {
				ai++ // add of a present edge: one emit
				fromAdd = true
			}
			bi++
		} else {
			next = adds[ai][1]
			ai++
			fromAdd = true
		}
		for ri < len(rems) && rems[ri][1] < next {
			ri++
		}
		if !fromAdd && ri < len(rems) && rems[ri][1] == next {
			continue // removed, not re-added
		}
		dst = append(dst, next)
	}
	return dst
}

// deltaArcs expands undirected edges into sorted, deduplicated directed
// arcs, validating endpoints against the successor vertex count.
func deltaArcs(edges [][2]int32, newN int, op string) ([][2]int32, error) {
	if len(edges) == 0 {
		return nil, nil
	}
	arcs := make([][2]int32, 0, 2*len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || int(u) >= newN || int(v) >= newN {
			return nil, fmt.Errorf("graph: delta: %s edge {%d,%d} out of range [0,%d)", op, u, v, newN)
		}
		if u == v {
			return nil, fmt.Errorf("graph: delta: %s edge {%d,%d} is a self loop", op, u, v)
		}
		arcs = append(arcs, [2]int32{u, v}, [2]int32{v, u})
	}
	sort.Slice(arcs, func(i, k int) bool {
		if arcs[i][0] != arcs[k][0] {
			return arcs[i][0] < arcs[k][0]
		}
		return arcs[i][1] < arcs[k][1]
	})
	out := arcs[:1]
	for _, a := range arcs[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out, nil
}

// arcListHas reports whether the sorted arc list contains a.
func arcListHas(arcs [][2]int32, a [2]int32) bool {
	i := sort.Search(len(arcs), func(i int) bool {
		if arcs[i][0] != a[0] {
			return arcs[i][0] > a[0]
		}
		return arcs[i][1] >= a[1]
	})
	return i < len(arcs) && arcs[i] == a
}

// Binary delta wire frame, the incremental counterpart of the CSR frame in
// wire.go. Same transport Content-Type; the magic distinguishes them.
//
//	offset  size      field
//	0       4         magic "GCSD"
//	4       2         version (currently 1)
//	6       2         flags (must be zero in version 1)
//	8       8         base graph content fingerprint (uint64)
//	16      4         addVertices (uint32)
//	20      4         nAddEdges (uint32)
//	24      4         nRemoveEdges (uint32)
//	28      8*nAdd    add edges, two int32 endpoints each
//	...     8*nRem    remove edges, two int32 endpoints each
//
// All fields little-endian. The frame is self-delimiting; trailing bytes
// are rejected.
const (
	WireDeltaMagic   = "GCSD"
	WireDeltaVersion = 1

	wireDeltaHeaderLen = 28
)

// WireDeltaSize returns the encoded frame size for d in bytes.
func WireDeltaSize(d *Delta) int {
	return wireDeltaHeaderLen + 8*len(d.AddEdges) + 8*len(d.RemoveEdges)
}

// EncodeWireDelta returns the binary delta frame for d against the base
// graph identified by baseFp.
func EncodeWireDelta(baseFp uint64, d *Delta) []byte {
	dst := make([]byte, 0, WireDeltaSize(d))
	dst = append(dst, WireDeltaMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, WireDeltaVersion)
	dst = binary.LittleEndian.AppendUint16(dst, 0) // flags
	dst = binary.LittleEndian.AppendUint64(dst, baseFp)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(d.AddVertices))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.AddEdges)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.RemoveEdges)))
	for _, e := range d.AddEdges {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e[0]))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e[1]))
	}
	for _, e := range d.RemoveEdges {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e[0]))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e[1]))
	}
	return dst
}

// IsWireDelta sniffs the delta frame magic.
func IsWireDelta(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == WireDeltaMagic
}

// DecodeWireDelta parses a binary delta frame. Endpoint range and self-loop
// validation happen in ApplyDelta (they need the base vertex count); the
// decoder validates framing, counts, and the vertex cap.
func DecodeWireDelta(data []byte) (uint64, *Delta, error) {
	if len(data) < wireDeltaHeaderLen {
		return 0, nil, fmt.Errorf("gcsd: truncated header: %d bytes, want at least %d", len(data), wireDeltaHeaderLen)
	}
	if string(data[:4]) != WireDeltaMagic {
		return 0, nil, fmt.Errorf("gcsd: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != WireDeltaVersion {
		return 0, nil, fmt.Errorf("gcsd: unsupported version %d", v)
	}
	if fl := binary.LittleEndian.Uint16(data[6:8]); fl != 0 {
		return 0, nil, fmt.Errorf("gcsd: unsupported flags %#x", fl)
	}
	baseFp := binary.LittleEndian.Uint64(data[8:16])
	addV := int64(binary.LittleEndian.Uint32(data[16:20]))
	nAdd := int64(binary.LittleEndian.Uint32(data[20:24]))
	nRem := int64(binary.LittleEndian.Uint32(data[24:28]))
	if addV > int64(MaxVertices) {
		return 0, nil, fmt.Errorf("gcsd: addVertices %d exceeds limit %d", addV, MaxVertices)
	}
	want := int64(wireDeltaHeaderLen) + 8*nAdd + 8*nRem
	if int64(len(data)) < want {
		return 0, nil, fmt.Errorf("gcsd: frame is %d bytes, header declares %d", len(data), want)
	}
	if int64(len(data)) > want {
		return 0, nil, fmt.Errorf("gcsd: %d trailing bytes past declared frame end", int64(len(data))-want)
	}
	d := &Delta{AddVertices: int(addV)}
	body := data[wireDeltaHeaderLen:]
	readEdges := func(k int64) [][2]int32 {
		if k == 0 {
			return nil
		}
		out := make([][2]int32, k)
		for i := range out {
			out[i][0] = int32(binary.LittleEndian.Uint32(body[8*i:]))
			out[i][1] = int32(binary.LittleEndian.Uint32(body[8*i+4:]))
		}
		body = body[8*k:]
		return out
	}
	d.AddEdges = readEdges(nAdd)
	d.RemoveEdges = readEdges(nRem)
	return baseFp, d, nil
}
