package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Reference ingest implementations the differential fuzz targets compare
// against: the line-at-a-time edge-list reader built on bufio.Scanner,
// strings.Fields and strconv, and the binary-search symmetry check of the
// CSR decoder. Both are simple enough to trust by reading.

// readEdgeListReference parses the edge-list format one scanned line at
// a time.
func readEdgeListReference(r io.Reader, maxN int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges [][2]int32
	declared := 0
	maxID := int32(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			// Optional "# n <count>" directive.
			f := strings.Fields(strings.TrimLeft(text, "#% "))
			if len(f) == 2 && f[0] == "n" {
				n, err := strconv.Atoi(f[1])
				if err == nil && n > declared {
					if n > maxN {
						return nil, fmt.Errorf("edgelist line %d: declared vertex count %d exceeds limit %d", line, n, maxN)
					}
					declared = n
				}
			}
			continue
		}
		f := strings.Fields(text)
		if len(f) < 2 {
			return nil, fmt.Errorf("edgelist line %d: want two fields, got %q", line, text)
		}
		u, err := strconv.ParseInt(f[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgelist line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgelist line %d: %v", line, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("edgelist line %d: negative vertex id", line)
		}
		if u >= int64(maxN) || v >= int64(maxN) {
			return nil, fmt.Errorf("edgelist line %d: vertex id %d exceeds limit %d", line, max(u, v), maxN)
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
		if int32(u) > maxID {
			maxID = int32(u)
		}
		if int32(v) > maxID {
			maxID = int32(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	n := int(maxID) + 1
	if declared > n {
		n = declared
	}
	return FromEdges(n, edges), nil
}

// decodeWireCSRReference decodes a frame like decodeWireCSRLimit but
// checks symmetry with a binary search for the reverse of every arc.
func decodeWireCSRReference(data []byte, maxN int) (*Graph, uint64, error) {
	g, err := decodeCSRRows(data, maxN)
	if err != nil {
		return nil, 0, err
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range g.Neighbors(int32(u)) {
			if !g.HasEdge(w, int32(u)) {
				return nil, 0, fmt.Errorf("gcsr: arc %d->%d has no reverse", u, w)
			}
		}
	}
	return g, g.Fingerprint(), nil
}
