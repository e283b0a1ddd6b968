package shard

import "gcolor/internal/graph"

// The shard policy's fixed values: the size thresholds a Policy's zero
// fields stand for, and the cap on any job's shard count.
const (
	DefaultAutoVertices = 8192
	DefaultAutoEdges    = 1 << 18
	MaxShards           = 16
)

// Policy decides how many shards a job runs as, on a server (one shard
// per pooled device) and on a coordinator (one per live worker) alike.
// Its zero value auto-shards graphs of at least DefaultAutoVertices
// vertices or DefaultAutoEdges edges, one shard per executor.
type Policy struct {
	// Disabled runs every job whole, whatever count it asks for.
	Disabled bool
	// K is the shard count of an auto-sharded job (<= 0: one shard per
	// executor). Every count is capped at MaxShards.
	K int
	// AutoVertices and AutoEdges are the graph sizes at or above which a
	// job that asks for no count is sharded (0: DefaultAutoVertices and
	// DefaultAutoEdges; negative turns that trigger off).
	AutoVertices int
	AutoEdges    int
}

// Count is the number of shards g runs as when its request asks for
// shards: 0 for auto, 1 or a negative count for whole, K >= 2 for K.
// executors reports how many executors can take a shard; Count calls it
// only once the request and the graph's size call for a split, so a
// caller whose count is costly to take pays for it only then. With fewer
// than 2 executors the job runs whole, and every count is capped at
// MaxShards and at g's vertex count.
func (p Policy) Count(g *graph.Graph, shards int, executors func() int) int {
	if p.Disabled || shards == 1 || shards < 0 || shards == 0 && !p.auto(g) {
		return 1
	}
	n := executors()
	if n < 2 {
		return 1
	}
	k := shards
	if k == 0 {
		k = p.K
		if k <= 0 {
			k = n
		}
	}
	return max(1, min(k, MaxShards, g.NumVertices()))
}

// auto reports whether g is large enough to shard without being asked.
func (p Policy) auto(g *graph.Graph) bool {
	v, e := p.AutoVertices, p.AutoEdges
	if v == 0 {
		v = DefaultAutoVertices
	}
	if e == 0 {
		e = DefaultAutoEdges
	}
	return v > 0 && g.NumVertices() >= v || e > 0 && g.NumEdges() >= e
}
