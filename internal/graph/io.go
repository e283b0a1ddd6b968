package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file implements the three text formats the tools accept:
//
//   - edge list: one "u v" pair per line, 0-based, '#' or '%' comments;
//     the vertex count is max id + 1 unless a leading "# n <count>" line
//     raises it.
//   - DIMACS coloring format (.col): "c" comments, one "p edge <n> <m>"
//     problem line, "e <u> <v>" edges, 1-based.
//   - MatrixMarket coordinate pattern (.mtx): "%%MatrixMarket matrix
//     coordinate pattern <symmetry>" header, "<rows> <cols> <nnz>" size
//     line, 1-based "i j" entries. The matrix is treated as the adjacency
//     structure of an undirected graph (general matrices are symmetrized).

// MaxVertices caps the vertex count the text parsers accept. The CSR
// offsets array alone costs 4 bytes per vertex, so a single malformed line
// like "0 2000000000" would otherwise commit gigabytes before any edge is
// read; real inputs at this repository's scale sit orders of magnitude
// below the cap.
const MaxVertices = 1 << 28

// ReadEdgeList parses the edge-list format from r.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return readEdgeListLimit(r, MaxVertices)
}

// ParseEdgeList parses edge-list text held in a string, such as the graph
// field of a JSON request, in place: it returns exactly what
// ReadEdgeList(strings.NewReader(s)) returns, without copying s.
func ParseEdgeList(s string) (*Graph, error) {
	return parseEdgeListLimit(s, MaxVertices)
}

// maxEdgeListLine bounds one edge-list line: a line this long or longer,
// its newline not counted, fails with bufio.ErrTooLong. That is where the
// reader's bufio.Scanner runs out of buffer, and the string parser stops
// at the same length.
const maxEdgeListLine = 1 << 22

// readEdgeListLimit is ReadEdgeList with an explicit vertex-count cap (the
// fuzz targets use a small one so hostile inputs cannot OOM the harness).
// The scanner's tokens are runs of whole lines, not single lines, so a
// token costs one call however short its lines are; the scanner still
// owns buffering, the line-length limit and read errors.
func readEdgeListLimit(r io.Reader, maxN int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxEdgeListLine)
	sc.Split(scanLineRuns)
	el := edgeList{maxN: maxN, maxID: -1}
	for sc.Scan() {
		for run := sc.Bytes(); len(run) > 0; {
			line := run
			if i := bytes.IndexByte(run, '\n'); i >= 0 {
				line, run = run[:i], run[i+1:]
			} else {
				run = nil
			}
			if err := parseEdgeLine(&el, line); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return el.graph(), nil
}

// scanLineRuns is a bufio.SplitFunc whose tokens are every whole line the
// buffer holds, newlines included; at EOF the unterminated rest is the
// last token. It splits where bufio.ScanLines does, so line numbers and
// the line-length limit are unchanged.
func scanLineRuns(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// parseEdgeListLimit is ParseEdgeList with an explicit vertex-count cap.
func parseEdgeListLimit(s string, maxN int) (*Graph, error) {
	// A line holds at most one edge, and an edge line at least four bytes
	// with its newline, so the smaller bound sizes the edge list: it never
	// regrows, and blank lines cannot size it past what as long a text of
	// edges would need.
	size := min(strings.Count(s, "\n")+1, (len(s)+1)/4)
	el := edgeList{maxN: maxN, maxID: -1, edges: make([][2]int32, 0, size)}
	for len(s) > 0 {
		line := s
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			line, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		if len(line) >= maxEdgeListLine {
			return nil, bufio.ErrTooLong
		}
		if err := parseEdgeLine(&el, line); err != nil {
			return nil, err
		}
	}
	return el.graph(), nil
}

// edgeList accumulates one edge-list parse, a line at a time.
type edgeList struct {
	maxN     int
	edges    [][2]int32
	declared int   // largest accepted "# n <count>" directive
	maxID    int32 // largest vertex id seen, -1 before any edge
	line     int   // 1-based number of the line being parsed
}

// graph builds the parsed graph: max id + 1 vertices, or the declared
// count when that is larger.
func (el *edgeList) graph() *Graph {
	n := max(int(el.maxID)+1, el.declared)
	return FromEdges(n, el.edges)
}

// Byte classes for splitting a line into fields. strings.Fields splits
// ASCII text on exactly the spaceByte bytes; outside ASCII it splits on
// Unicode spaces such as NBSP and NEL, so a line that reaches a byte of
// class wideByte is handed to unicodeEdgeLine instead.
const (
	fieldByte = iota
	spaceByte
	wideByte
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte("\t\n\v\f\r ") {
		c[b] = spaceByte
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = wideByte
	}
	return c
}()

// nextField returns the bounds of the first field of s at or after i, as
// strings.Fields would split an ASCII s; start is len(s) when no field is
// left. ascii is false when a byte outside ASCII comes first.
func nextField[T string | []byte](s T, i int) (start, end int, ascii bool) {
	for ; i < len(s) && byteClass[s[i]] != fieldByte; i++ {
		if byteClass[s[i]] == wideByte {
			return 0, 0, false
		}
	}
	start = i
	for ; i < len(s) && byteClass[s[i]] != spaceByte; i++ {
		if byteClass[s[i]] == wideByte {
			return 0, 0, false
		}
	}
	return start, i, true
}

// parseEdgeLine parses one line (without its newline). It splits the line
// in place, where the text is ASCII, exactly as the format's definition
// does: trim the line; skip it if empty; read a '#' or '%' line as a
// comment whose fields after the leading "#% " run may be the "n <count>"
// directive; otherwise read the first two fields as vertex ids and ignore
// any others.
func parseEdgeLine[T string | []byte](el *edgeList, s T) error {
	el.line++
	a0, a1, ok := nextField(s, 0)
	if !ok {
		return unicodeEdgeLine(el, string(s))
	}
	if a0 == len(s) {
		return nil
	}
	if s[a0] == '#' || s[a0] == '%' {
		i := a0
		for i < len(s) && (s[i] == '#' || s[i] == '%' || s[i] == ' ') {
			i++
		}
		k0, k1, ok1 := nextField(s, i)
		v0, v1, ok2 := nextField(s, k1)
		x0, _, ok3 := nextField(s, v1)
		if !ok1 || !ok2 || !ok3 {
			return unicodeEdgeLine(el, string(s))
		}
		if k1-k0 == 1 && s[k0] == 'n' && v0 < len(s) && x0 == len(s) {
			return declareVertices(el, s[v0:v1])
		}
		return nil
	}
	b0, b1, ok := nextField(s, a1)
	if !ok {
		return unicodeEdgeLine(el, string(s))
	}
	if b0 == len(s) {
		return fmt.Errorf("edgelist line %d: want two fields, got %q", el.line, strings.TrimSpace(string(s)))
	}
	return addEdge(el, s[a0:a1], s[b0:b1])
}

// unicodeEdgeLine parses a line holding a byte outside ASCII, splitting it
// with strings.TrimSpace and strings.Fields; the byte-level splitter
// above reproduces their results on ASCII lines.
func unicodeEdgeLine(el *edgeList, line string) error {
	text := strings.TrimSpace(line)
	if text == "" {
		return nil
	}
	if text[0] == '#' || text[0] == '%' {
		if f := strings.Fields(strings.TrimLeft(text, "#% ")); len(f) == 2 && f[0] == "n" {
			return declareVertices(el, f[1])
		}
		return nil
	}
	f := strings.Fields(text)
	if len(f) < 2 {
		return fmt.Errorf("edgelist line %d: want two fields, got %q", el.line, text)
	}
	return addEdge(el, f[0], f[1])
}

// declareVertices applies a "# n <count>" directive: an unparsable count
// is ignored, and only a count above every earlier one is checked against
// the cap and kept.
func declareVertices[T string | []byte](el *edgeList, f T) error {
	n, err := parseInt(f, 0)
	if err != nil || int(n) <= el.declared {
		return nil
	}
	if int(n) > el.maxN {
		return fmt.Errorf("edgelist line %d: declared vertex count %d exceeds limit %d", el.line, n, el.maxN)
	}
	el.declared = int(n)
	return nil
}

// addEdge appends the edge named by two vertex-id fields.
func addEdge[T string | []byte](el *edgeList, fu, fv T) error {
	u, err := parseInt(fu, 32)
	if err != nil {
		return fmt.Errorf("edgelist line %d: %v", el.line, err)
	}
	v, err := parseInt(fv, 32)
	if err != nil {
		return fmt.Errorf("edgelist line %d: %v", el.line, err)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("edgelist line %d: negative vertex id", el.line)
	}
	if u >= int64(el.maxN) || v >= int64(el.maxN) {
		return fmt.Errorf("edgelist line %d: vertex id %d exceeds limit %d", el.line, max(u, v), el.maxN)
	}
	el.edges = append(el.edges, [2]int32{int32(u), int32(v)})
	el.maxID = max(el.maxID, int32(u), int32(v))
	return nil
}

// parseInt parses a decimal field as strconv.ParseInt(f, 10, bitSize)
// does. A sign and up to nine digits, the common case, decode in place;
// anything else, errors included, is left to strconv.
func parseInt[T string | []byte](f T, bitSize int) (int64, error) {
	i, neg := 0, false
	if len(f) > 0 && (f[0] == '+' || f[0] == '-') {
		i, neg = 1, f[0] == '-'
	}
	if n := len(f) - i; n == 0 || n > 9 {
		return strconv.ParseInt(string(f), 10, bitSize)
	}
	v := int64(0)
	for ; i < len(f); i++ {
		d := f[i] - '0'
		if d > 9 {
			return strconv.ParseInt(string(f), 10, bitSize)
		}
		v = 10*v + int64(d)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// WriteEdgeList writes g in the edge-list format (each undirected edge once,
// with a "# n" directive so isolated trailing vertices survive a round trip).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# n %d\n", g.NumVertices()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if int32(v) < u {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadDIMACS parses the DIMACS graph-coloring (.col) format from r.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	return readDIMACSLimit(r, MaxVertices)
}

func readDIMACSLimit(r io.Reader, maxN int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var b *Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		f := strings.Fields(text)
		switch f[0] {
		case "p":
			if b != nil {
				return nil, fmt.Errorf("dimacs line %d: duplicate problem line", line)
			}
			if len(f) < 3 {
				return nil, fmt.Errorf("dimacs line %d: malformed problem line %q", line, text)
			}
			n, err := strconv.Atoi(f[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("dimacs line %d: bad vertex count %q", line, f[2])
			}
			if n > maxN {
				return nil, fmt.Errorf("dimacs line %d: vertex count %d exceeds limit %d", line, n, maxN)
			}
			b = NewBuilder(n)
		case "e":
			if b == nil {
				return nil, fmt.Errorf("dimacs line %d: edge before problem line", line)
			}
			if len(f) < 3 {
				return nil, fmt.Errorf("dimacs line %d: malformed edge %q", line, text)
			}
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("dimacs line %d: malformed edge %q", line, text)
			}
			if u < 1 || v < 1 || u > b.NumVertices() || v > b.NumVertices() {
				return nil, fmt.Errorf("dimacs line %d: edge (%d,%d) out of range 1..%d", line, u, v, b.NumVertices())
			}
			b.AddEdge(int32(u-1), int32(v-1))
		default:
			return nil, fmt.Errorf("dimacs line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	return b.Build(), nil
}

// WriteDIMACS writes g in the DIMACS .col format.
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p edge %d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if int32(v) < u {
				if _, err := fmt.Fprintf(bw, "e %d %d\n", v+1, u+1); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate-pattern matrix as an
// undirected graph. Square matrices only; the diagonal is dropped.
func ReadMatrixMarket(r io.Reader) (*Graph, error) {
	return readMatrixMarketLimit(r, MaxVertices)
}

func readMatrixMarketLimit(r io.Reader, maxN int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("mtx: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("mtx: unsupported header %q", sc.Text())
	}
	// header[3] is the field (pattern/real/integer); values, if present, are
	// ignored — only the sparsity structure matters for coloring.
	var b *Builder
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		f := strings.Fields(text)
		if b == nil { // size line
			if len(f) < 3 {
				return nil, fmt.Errorf("mtx line %d: malformed size line %q", line, text)
			}
			rows, err1 := strconv.Atoi(f[0])
			cols, err2 := strconv.Atoi(f[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("mtx line %d: malformed size line %q", line, text)
			}
			if rows < 0 || cols < 0 {
				return nil, fmt.Errorf("mtx line %d: negative dimension in %q", line, text)
			}
			if rows != cols {
				return nil, fmt.Errorf("mtx: matrix is %dx%d, want square", rows, cols)
			}
			if rows > maxN {
				return nil, fmt.Errorf("mtx line %d: dimension %d exceeds limit %d", line, rows, maxN)
			}
			b = NewBuilder(rows)
			continue
		}
		if len(f) < 2 {
			return nil, fmt.Errorf("mtx line %d: malformed entry %q", line, text)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("mtx line %d: malformed entry %q", line, text)
		}
		if i < 1 || j < 1 || i > b.NumVertices() || j > b.NumVertices() {
			return nil, fmt.Errorf("mtx line %d: entry (%d,%d) out of range", line, i, j)
		}
		if i != j {
			b.AddEdge(int32(i-1), int32(j-1))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("mtx: missing size line")
	}
	return b.Build(), nil
}
