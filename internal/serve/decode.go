package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
)

// This file reads JSON POST /color bodies without reflection.
// encoding/json makes two passes over a body, a validating scan and then a
// reflective decode that copies every string, and for an edge-list upload
// those cost more than parsing the edge list. Every body this system
// writes (clients, the coordinator's envelopes to workers, the journal's
// replay forms) has one canonical shape, which readColorRequest reads in
// one pass:
//
//   - one object, with JSON whitespace anywhere between tokens;
//   - exact lower-case known keys, each at most once;
//   - strings of printable ASCII, using only the escapes \n \t \r \" \\
//     \/ \b \f;
//   - integers with no fraction, exponent or leading zero (and not -0),
//     within the field's Go type;
//   - true or false;
//   - add_edges and remove_edges as arrays of two-integer arrays within
//     int32.
//
// Anything else (an unknown or case-variant key, a repeated key, null, a
// \u escape, a non-ASCII byte, a float, an out-of-range number, an inner
// array whose length is not 2, trailing bytes, a body that is not an
// object) goes to json.Unmarshal, so every accepted body, every rejected
// body and every error text is encoding/json's.
// FuzzDecodeColorRequest and TestDecodeColorRequestEveryField hold the
// reader to that.
//
// It is a plain function, not an UnmarshalJSON method: a method would
// also run inside every other json.Unmarshal of a ColorRequest, where
// encoding/json has already scanned the bytes, and the serving benchmark
// times its own json.Unmarshal of the type as a separate layer.

// decodeColorRequest decodes a JSON /color body into cr as json.Unmarshal
// into a zero ColorRequest would: the same fields, or the same error.
// A canonical body is read in one pass; any other goes to json.Unmarshal,
// and fellBack reports that it did. body is left as it is: strings are
// copied out, not unescaped in place, because the body is also the
// request's journal wire form and its memo digest's input.
func decodeColorRequest(body []byte, cr *ColorRequest) (fellBack bool, err error) {
	if readColorRequest(body, cr) {
		return false, nil
	}
	*cr = ColorRequest{}
	return true, json.Unmarshal(body, cr)
}

// readColorRequest reads a canonical body into cr, which it zeroes first.
// It reports false, leaving cr partly filled, on the first byte outside
// the canonical shape.
func readColorRequest(body []byte, cr *ColorRequest) bool {
	*cr = ColorRequest{}
	s := reqScanner{b: body}
	if !s.next('{') {
		return false
	}
	if !s.next('}') {
		var seen uint32
		for {
			key, ok := s.key()
			if !ok || !s.next(':') {
				return false
			}
			bit, ok := s.member(cr, key)
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			if s.next(',') {
				continue
			}
			if !s.next('}') {
				return false
			}
			break
		}
	}
	s.skip()
	return s.i == len(s.b)
}

// member reads the value of the member named key into its field. It
// returns the field's own bit, which catches a repeated key, and false
// for an unknown key or a value outside the canonical shape. A field
// added to ColorRequest must be added here too
// (TestDecodeColorRequestEveryField fails until it is).
func (s *reqScanner) member(cr *ColorRequest, key []byte) (uint32, bool) {
	switch string(key) {
	case "graph":
		return 1 << 0, s.str(&cr.Graph)
	case "gen":
		return 1 << 1, s.str(&cr.Gen)
	case "graph_csr_b64":
		return 1 << 2, s.str(&cr.GraphCSRB64)
	case "alg":
		return 1 << 3, s.str(&cr.Alg)
	case "seed":
		return 1 << 4, s.uint32(&cr.Seed)
	case "threshold":
		return 1 << 5, s.int(&cr.Threshold)
	case "fused":
		return 1 << 6, s.bool(&cr.Fused)
	case "policy":
		return 1 << 7, s.str(&cr.Policy)
	case "priority":
		return 1 << 8, s.str(&cr.Priority)
	case "cycle_budget":
		return 1 << 9, s.int64(&cr.CycleBudget)
	case "max_retries":
		return 1 << 10, s.int(&cr.MaxRetries)
	case "no_cpu_fallback":
		return 1 << 11, s.bool(&cr.NoCPUFallback)
	case "no_cache":
		return 1 << 12, s.bool(&cr.NoCache)
	case "shards":
		return 1 << 13, s.int(&cr.Shards)
	case "timeout_ms":
		return 1 << 14, s.int64(&cr.TimeoutMS)
	case "include_colors":
		return 1 << 15, s.bool(&cr.IncludeColors)
	case "resident":
		return 1 << 16, s.bool(&cr.Resident)
	case "base_fingerprint":
		return 1 << 17, s.str(&cr.BaseFingerprint)
	case "add_vertices":
		return 1 << 18, s.int(&cr.AddVertices)
	case "add_edges":
		return 1 << 19, s.edges(&cr.AddEdges)
	case "remove_edges":
		return 1 << 20, s.edges(&cr.RemoveEdges)
	}
	return 0, false
}

// reqScanner is a position in a body being read. Its readers report false
// on the first byte outside the canonical shape; the position is then
// meaningless, and the caller gives up.
type reqScanner struct {
	b []byte
	i int
}

// plainASCII marks the bytes a canonical string holds as themselves:
// printable ASCII but the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescapes maps the byte after a backslash to the byte the escape stands
// for; 0 marks an escape outside the canonical shape.
var unescapes = [256]byte{'n': '\n', 't': '\t', 'r': '\r', '"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f'}

// skip advances past JSON whitespace.
func (s *reqScanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next reports whether the next byte after whitespace is c, consuming it
// if so.
func (s *reqScanner) next(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key reads an object key with no escapes, returning its bytes in the
// body.
func (s *reqScanner) key() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && plainASCII[s.b[s.i]] {
		s.i++
	}
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	return s.b[start : s.i-1], true
}

// str reads a string into *dst, copied out of the body.
func (s *reqScanner) str(dst *string) bool {
	if !s.next('"') {
		return false
	}
	b, start := s.b, s.i
	i := start
	for i < len(b) && plainASCII[b[i]] {
		i++
	}
	if i < len(b) && b[i] == '"' {
		*dst = string(b[start:i])
		s.i = i + 1
		return true
	}
	// The string has escapes. The raw text up to the next quote bounds
	// its unescaped length unless it escapes a quote, which only makes
	// the builder grow.
	var sb strings.Builder
	if q := bytes.IndexByte(b[i:], '"'); q >= 0 {
		sb.Grow(i - start + q)
	}
	run := start
	for i < len(b) {
		c := b[i]
		if plainASCII[c] {
			i++
			continue
		}
		sb.Write(b[run:i])
		switch {
		case c == '"':
			*dst = sb.String()
			s.i = i + 1
			return true
		case c == '\\' && i+1 < len(b) && unescapes[b[i+1]] != 0:
			sb.WriteByte(unescapes[b[i+1]])
			i += 2
			run = i
		default:
			return false
		}
	}
	return false
}

// bool reads true or false.
func (s *reqScanner) bool(dst *bool) bool {
	s.skip()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		s.i += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
	default:
		return false
	}
	return true
}

// integer reads an integer as its sign and magnitude: an optional minus
// sign, then 0 or at most 19 digits with no leading zero; -0 is not
// canonical. A fraction or exponent is left unread, and the caller, which
// expects the value to end there, rejects it.
func (s *reqScanner) integer() (neg bool, mag uint64, ok bool) {
	s.skip()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mag = mag*10 + uint64(b[i]-'0')
	}
	if n := i - start; n == 0 || n > 19 || n > 1 && b[start] == '0' || neg && mag == 0 {
		return false, 0, false
	}
	s.i = i
	return neg, mag, true
}

// signed reads an integer in [lo, hi].
func (s *reqScanner) signed(lo, hi int64) (int64, bool) {
	neg, mag, ok := s.integer()
	switch {
	case !ok:
		return 0, false
	case neg:
		// -lo may not fit an int64.
		return int64(-mag), mag <= uint64(-(lo+1))+1
	default:
		return int64(mag), mag <= uint64(hi)
	}
}

func (s *reqScanner) int(dst *int) bool {
	v, ok := s.signed(math.MinInt, math.MaxInt)
	*dst = int(v)
	return ok
}

func (s *reqScanner) int64(dst *int64) bool {
	v, ok := s.signed(math.MinInt64, math.MaxInt64)
	*dst = v
	return ok
}

func (s *reqScanner) uint32(dst *uint32) bool {
	neg, mag, ok := s.integer()
	*dst = uint32(mag)
	return ok && !neg && mag <= math.MaxUint32
}

// edges reads an array of [u, v] pairs within int32. An empty array is
// an empty slice, not nil, as encoding/json decodes it.
func (s *reqScanner) edges(dst *[][2]int32) bool {
	if !s.next('[') {
		return false
	}
	out := [][2]int32{}
	if !s.next(']') {
		for {
			if !s.next('[') {
				return false
			}
			u, ok := s.signed(math.MinInt32, math.MaxInt32)
			if !ok || !s.next(',') {
				return false
			}
			v, ok := s.signed(math.MinInt32, math.MaxInt32)
			if !ok || !s.next(']') {
				return false
			}
			out = append(out, [2]int32{int32(u), int32(v)})
			if s.next(',') {
				continue
			}
			if !s.next(']') {
				return false
			}
			break
		}
	}
	*dst = out
	return true
}
