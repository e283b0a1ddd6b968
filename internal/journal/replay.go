package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
)

// ReplayStats counts what Open found on disk. Corruption is evidence,
// not failure: every counter here feeds the replay_* metrics surfaced at
// /recoveryz.
type ReplayStats struct {
	// Segments is the number of segment files scanned (snapshot included
	// when one was loaded).
	Segments int `json:"segments"`
	// SnapshotLoaded reports that a compacted snapshot seeded the state.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// Records / Accepts / Completes count the valid records replayed.
	Records   int64 `json:"records"`
	Accepts   int64 `json:"accepts"`
	Completes int64 `json:"completes"`
	// TornTails counts segments that ended in a torn or corrupt frame and
	// were truncated at the last valid record; TruncatedBytes the bytes
	// discarded that way.
	TornTails      int   `json:"torn_tails"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	// CorruptSegments counts files whose header magic was wrong (or that
	// were shorter than a header); their contents are unrecoverable and
	// skipped whole.
	CorruptSegments int `json:"corrupt_segments"`
	// Bytes is the total valid bytes replayed.
	Bytes int64 `json:"bytes"`
}

// Recovery is the replayed journal state Open hands back to the server.
type Recovery struct {
	// Pending holds accepted jobs with no completion record, in accept
	// order: the work a crash interrupted. Jobs whose deadline has passed
	// still appear here — the server expires them explicitly
	// (DispReplayExpired), it does not silently drop them.
	Pending []AcceptRecord
	// Completions holds DispOK completion records in journal order
	// (oldest first), deduplicated by (fingerprint, policy) with the
	// newest record winning. Replaying them through an LRU in order
	// reproduces the pre-crash recency ordering.
	Completions []CompleteRecord
	// Settled holds Resident accepts paired with their DispOK completion,
	// in settlement order: the version chain of the graph store. Pairing
	// is order-insensitive (snapshots write completions before accepts),
	// deduplicated by fingerprint with the newest pair winning, at the
	// newest pair's position; the older pairs' distinct wire forms ride
	// along in OlderWires. So a delta record can come before the pair of
	// the base it applies to (the base re-settled later), and a consumer
	// rebuilds in dependency order, not in one pass.
	Settled []SettledVersion
	// Stats describes the scan.
	Stats ReplayStats
}

// SettledVersion is one resident graph version recovered from the
// journal: the accept carries the wire form (full graph or delta) and the
// completion the coloring, together enough to rebuild the version store
// entry without re-executing anything.
type SettledVersion struct {
	Accept   AcceptRecord
	Complete CompleteRecord
	// OlderWires are the wire forms of earlier pairs that settled the
	// same fingerprint, newest first, each distinct from Accept.Wire and
	// from one another. A fingerprint names content, so any of them
	// rebuilds the same graph. They matter when Accept's cannot: a delta
	// that changed nothing names its own fingerprint as its base, and an
	// undo (v0 -> v1 -> v0) names v1, whose own delta names v0.
	OlderWires []json.RawMessage
}

// replayState folds records in order into pending/completed state.
// Accept and complete records pair on ID; completions also dedupe — by
// Idempotency-Key when they carry one (each client retry key keeps its
// own newest answer), by cache key (fp, pk) otherwise — so repeated
// snapshots and re-journaled replays collapse instead of accumulating.
type replayState struct {
	pendingByID map[string]int // index into pending; -1 = completed
	pending     []*AcceptRecord
	compByKey   map[string]int // dedupe key -> index into comps
	comps       []*CompleteRecord
	// Version-chain pairing. A resident accept and its DispOK completion
	// can arrive in either order (snapshots write completions first), so
	// each side parks until the other shows up: okByID holds unpaired
	// DispOK completions, resByID unpaired resident accepts.
	okByID      map[string]*CompleteRecord
	resByID     map[string]*AcceptRecord
	settledByFp map[uint64]int // fp -> index into settled; newest wins
	settled     []*SettledVersion
	stats       ReplayStats
}

func newReplayState() *replayState {
	return &replayState{
		pendingByID: make(map[string]int),
		compByKey:   make(map[string]int),
		okByID:      make(map[string]*CompleteRecord),
		resByID:     make(map[string]*AcceptRecord),
		settledByFp: make(map[uint64]int),
	}
}

// settle records a matched resident accept + DispOK completion pair. The
// newest pair per fingerprint wins, keeping the wire forms of the pairs
// it replaces that differ from its own.
func (st *replayState) settle(a *AcceptRecord, c *CompleteRecord) {
	sv := &SettledVersion{Accept: *a, Complete: *c}
	if i, ok := st.settledByFp[c.Fingerprint]; ok {
		prev := st.settled[i]
		st.settled[i] = nil
		for _, w := range append([]json.RawMessage{prev.Accept.Wire}, prev.OlderWires...) {
			if !bytes.Equal(w, a.Wire) {
				sv.OlderWires = append(sv.OlderWires, w)
			}
		}
	}
	st.settledByFp[c.Fingerprint] = len(st.settled)
	st.settled = append(st.settled, sv)
}

// compDedupeKey is the newest-wins identity of a DispOK completion.
func compDedupeKey(c *CompleteRecord) string {
	if c.IdemKey != "" {
		return "i\x00" + c.IdemKey
	}
	var b [17]byte
	binary.LittleEndian.PutUint64(b[0:], c.Fingerprint)
	binary.LittleEndian.PutUint64(b[8:], c.PolicyKey)
	b[16] = 'k'
	return string(b[:])
}

func (st *replayState) apply(rec *record) {
	switch {
	case rec.Accept != nil:
		a := rec.Accept
		st.stats.Accepts++
		if a.Resident {
			if c, ok := st.okByID[a.ID]; ok {
				st.settle(a, c) // completion replayed first (snapshot order)
			} else {
				st.resByID[a.ID] = a
			}
		}
		if i, ok := st.pendingByID[a.ID]; ok {
			if i >= 0 {
				st.pending[i] = a // duplicate accept (replayed job): newest wins
			}
			return
		}
		st.pendingByID[a.ID] = len(st.pending)
		st.pending = append(st.pending, a)
	case rec.Complete != nil:
		c := rec.Complete
		st.stats.Completes++
		if i, ok := st.pendingByID[c.ID]; ok && i >= 0 {
			st.pending[i] = nil
		}
		st.pendingByID[c.ID] = -1
		if c.Disposition != DispOK {
			return
		}
		st.okByID[c.ID] = c
		if a, ok := st.resByID[c.ID]; ok {
			st.settle(a, c)
			delete(st.resByID, c.ID)
		}
		key := compDedupeKey(c)
		if i, ok := st.compByKey[key]; ok {
			st.comps[i] = nil // newest result for a key wins, at its new position
		}
		st.compByKey[key] = len(st.comps)
		st.comps = append(st.comps, c)
	}
}

func (st *replayState) recovery() *Recovery {
	rec := &Recovery{Stats: st.stats}
	for _, a := range st.pending {
		if a != nil {
			rec.Pending = append(rec.Pending, *a)
		}
	}
	for _, c := range st.comps {
		if c != nil {
			rec.Completions = append(rec.Completions, *c)
		}
	}
	for _, s := range st.settled {
		if s != nil {
			rec.Settled = append(rec.Settled, *s)
		}
	}
	return rec
}

// replayDir scans the journal directory: the newest snapshot first (if
// any), then every segment at or past the snapshot's cover point, in
// index order. Returns the recovered state, the highest file index seen
// (so the new active segment lands past everything), and the snapshot
// index in effect.
func (j *Journal) replayDir() (*Recovery, uint64, uint64, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, 0, 0, err
	}
	segs := listIndexed(entries, "seg-", ".wal")
	snaps := listIndexed(entries, "snap-", ".snap")

	st := newReplayState()
	var snapSeq uint64
	var maxIdx uint64
	if len(snaps) > 0 {
		// Only the newest snapshot counts; older ones are compaction
		// leftovers. A snapshot that fails to load entirely (bad magic)
		// falls back to replaying every segment still on disk.
		snapSeq = snaps[len(snaps)-1]
		if snapSeq > maxIdx {
			maxIdx = snapSeq
		}
		if !j.replayFile(st, filepath.Join(j.dir, snapshotName(snapSeq)), false) {
			snapSeq = 0
		} else {
			st.stats.SnapshotLoaded = true
		}
	}
	for _, s := range segs {
		if s > maxIdx {
			maxIdx = s
		}
		if s < snapSeq {
			// Covered by the snapshot; a finished compaction would have
			// deleted it (a crash mid-compaction can leave it behind).
			_ = os.Remove(filepath.Join(j.dir, segmentName(s)))
			continue
		}
		j.sealed = append(j.sealed, s)
		j.replayFile(st, filepath.Join(j.dir, segmentName(s)), true)
	}
	return st.recovery(), maxIdx, snapSeq, nil
}

// replayFile folds one segment or snapshot into st. truncateTail trims
// a torn/corrupt tail back to the last valid frame (segments only —
// snapshots are written atomically, so a bad tail there is just
// counted). Returns false when the file header itself was unusable.
// Never returns an error: replay must not be able to fail.
func (j *Journal) replayFile(st *replayState, path string, truncateTail bool) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		st.stats.CorruptSegments++
		return false
	}
	st.stats.Segments++
	if len(data) < len(segmentMagic) || !bytes.Equal(data[:len(segmentMagic)], segmentMagic[:]) {
		// A zero-length or header-torn segment: nothing recoverable. An
		// empty file is the normal remains of a crash between create and
		// header write, so only count non-empty ones as corrupt.
		if len(data) > 0 {
			st.stats.CorruptSegments++
		}
		return false
	}
	off := len(segmentMagic)
	for off < len(data) {
		payload, n, ok := decodeFrame(data[off:])
		if !ok {
			// Torn or corrupt from here on. Everything after the last
			// valid frame is discarded: a flipped bit mid-file costs the
			// records behind it in this segment (frames are not
			// self-synchronizing), never the whole journal.
			st.stats.TornTails++
			st.stats.TruncatedBytes += int64(len(data) - off)
			if truncateTail {
				_ = os.Truncate(path, int64(off))
			}
			break
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err == nil {
			st.apply(&rec)
			st.stats.Records++
		}
		// A CRC-valid frame with undecodable JSON can only be a foreign
		// writer; skip the frame, keep scanning.
		st.stats.Bytes += int64(n)
		off += n
	}
	return true
}
