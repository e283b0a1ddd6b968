// Graph fingerprinting for the serving layer: a stable content hash that
// lets two requests carrying the same graph be recognized as duplicates
// (request coalescing) and lets completed colorings be cached by graph
// identity rather than by upload bytes.
package graph

import "fmt"

// fnv64 constants (FNV-1a). The hash is computed manually rather than via
// hash/maphash because the fingerprint must be stable across processes and
// releases: cache keys and golden test values depend on it.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3

	// Powers of the prime mod 2^64, for folding runs of zero bytes.
	fnvPrime64x2 = fnvPrime64 * fnvPrime64 & (1<<64 - 1)
	fnvPrime64x3 = fnvPrime64x2 * fnvPrime64 & (1<<64 - 1)
	fnvPrime64x4 = fnvPrime64x3 * fnvPrime64 & (1<<64 - 1)
)

// Fingerprint returns a stable 64-bit content hash of the graph.
//
// The hash covers the canonical CSR form — vertex count, offsets, and the
// sorted, deduplicated adjacency — so any two Graphs with the same vertex
// set and edge set hash equal regardless of the order edges were inserted,
// while any single-edge difference changes the hash with overwhelming
// probability. The value is deterministic across runs and platforms; it is
// a content identity, not a cryptographic commitment.
func (g *Graph) Fingerprint() uint64 {
	h := fnvInt32s(fnvOffset64, []int32{int32(g.NumVertices())})
	// offsets are fully determined by (n, degrees); hashing them guards the
	// degree sequence even if adj were empty, and costs one pass.
	h = fnvInt32s(h, g.offsets)
	return fnvInt32s(h, g.adj)
}

// FingerprintString renders a fingerprint the way the serving API and cache
// report it: 16 lowercase hex digits.
func FingerprintString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// fnvInt32s folds each int32 of vs into an FNV-1a state, four bytes each in
// little-endian order. A zero byte XORs nothing into the state, so a value's
// k high zero bytes are one multiply by the prime's k-th power: the small
// ids and offsets of a CSR cost two or three dependent multiplies instead of
// four, with the same result as the byte-serial chain.
func fnvInt32s(h uint64, vs []int32) uint64 {
	for _, v := range vs {
		u := uint32(v)
		switch {
		case u < 1<<8:
			h = (h ^ uint64(u)) * fnvPrime64x4
		case u < 1<<16:
			h = (h ^ uint64(u&0xff)) * fnvPrime64
			h = (h ^ uint64(u>>8)) * fnvPrime64x3
		case u < 1<<24:
			h = (h ^ uint64(u&0xff)) * fnvPrime64
			h = (h ^ uint64(u>>8&0xff)) * fnvPrime64
			h = (h ^ uint64(u>>16)) * fnvPrime64x2
		default:
			h = (h ^ uint64(u&0xff)) * fnvPrime64
			h = (h ^ uint64(u>>8&0xff)) * fnvPrime64
			h = (h ^ uint64(u>>16&0xff)) * fnvPrime64
			h = (h ^ uint64(u>>24)) * fnvPrime64
		}
	}
	return h
}
