package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Follower incrementally replays a journal directory that another process
// is still appending to — the standby coordinator's view of the primary's
// write-ahead journal. Each Poll picks up where the last one stopped:
// newly completed frames in the tailed segment, then newly sealed
// segments, folding everything into the same replay state Open uses, so
// Recovery() at any instant is exactly what Open would have recovered had
// the primary died then.
//
// Tail discipline: a frame that does not decode is NOT corruption while
// the segment is still active — the primary's group-commit flusher writes
// on a ~25ms cadence, so a torn tail is usually a frame mid-flush that
// the next Poll will find completed. The follower therefore never
// truncates, and it only writes the segment off as finished once a
// higher-indexed segment exists on disk (the primary seals — flushes and
// fsyncs — a segment before rotating past it, so at that point any
// undecodable tail really is torn and is counted as such).
//
// Compaction: a snapshot newer than the tailed segment means the primary
// folded every segment below it into the snapshot (and deletes them), so
// the follower starts over from the snapshot, as Open does, and resumes
// at the snapshot's cover segment. The first Poll is just the case where
// the snapshot predates the follower.
//
// A Follower is not safe for concurrent use; the standby owns it.
type Follower struct {
	dir string
	st  *replayState
	seg uint64 // segment currently being tailed
	off int    // decoded bytes into that segment (0 = header unverified)
}

// NewFollower tails the journal in dir. No I/O happens until Poll.
func NewFollower(dir string) *Follower {
	return &Follower{dir: dir, st: newReplayState()}
}

// Poll scans for new records and folds them in, returning the number of
// records applied. An empty or absent directory is not an error — the
// primary may not have started yet.
func (f *Follower) Poll() (applied int64, err error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("journal: follow: %w", err)
	}
	before := f.st.stats.Records
	if snaps := listIndexed(entries, "snap-", ".snap"); len(snaps) > 0 && snaps[len(snaps)-1] > f.seg {
		snap := snaps[len(snaps)-1]
		st := newReplayState()
		if replaySnapshot(st, filepath.Join(f.dir, snapshotName(snap))) {
			st.stats.SnapshotLoaded = true
			f.st, f.seg, f.off, before = st, snap, 0, 0
		}
	}
	segs := listIndexed(entries, "seg-", ".wal")
	for {
		if !contains(segs, f.seg) {
			next, ok := nextAbove(segs, f.seg)
			if !ok {
				break // nothing (new) on disk yet
			}
			f.seg, f.off = next, 0
		}
		data, rerr := os.ReadFile(filepath.Join(f.dir, segmentName(f.seg)))
		if rerr != nil {
			break // transient (primary mid-create); re-poll
		}
		f.drain(data)
		next, ok := nextAbove(segs, f.seg)
		if !ok {
			break // still the active segment; tail it again next Poll
		}
		// The primary rotated past this segment, sealing it fully flushed:
		// whatever did not decode is genuinely torn, not in flight.
		if f.off > 0 && f.off < len(data) {
			f.st.stats.TornTails++
			f.st.stats.TruncatedBytes += int64(len(data) - f.off)
		}
		f.seg, f.off = next, 0
	}
	return f.st.stats.Records - before, nil
}

// drain decodes every complete frame past the current offset.
func (f *Follower) drain(data []byte) {
	if f.off == 0 {
		if len(data) < len(segmentMagic) || !bytes.Equal(data[:len(segmentMagic)], segmentMagic[:]) {
			return // header not flushed yet (or foreign file); re-poll
		}
		f.st.stats.Segments++
		f.off = len(segmentMagic)
	}
	for f.off < len(data) {
		payload, n, ok := decodeFrame(data[f.off:])
		if !ok {
			return // incomplete or torn; decided at seal time
		}
		var rec record
		if json.Unmarshal(payload, &rec) == nil {
			f.st.apply(&rec)
			f.st.stats.Records++
		}
		f.st.stats.Bytes += int64(n)
		f.off += n
	}
}

// replaySnapshot folds a compacted snapshot into st.
func replaySnapshot(st *replayState, path string) bool {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < len(segmentMagic) || !bytes.Equal(data[:len(segmentMagic)], segmentMagic[:]) {
		return false
	}
	st.stats.Segments++
	off := len(segmentMagic)
	for off < len(data) {
		payload, n, ok := decodeFrame(data[off:])
		if !ok {
			break // snapshots are written atomically; a bad tail ends it
		}
		var rec record
		if json.Unmarshal(payload, &rec) == nil {
			st.apply(&rec)
			st.stats.Records++
		}
		st.stats.Bytes += int64(n)
		off += n
	}
	return true
}

// Recovery snapshots the follower's current state in the same shape Open
// returns: the pending accepts a takeover must re-dispatch and the
// completions that warm its caches. The follower remains usable after.
func (f *Follower) Recovery() *Recovery {
	return f.st.recovery()
}

// Stats reports the scan counters so far.
func (f *Follower) Stats() ReplayStats { return f.st.stats }

func contains(xs []uint64, v uint64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// nextAbove returns the smallest element of the sorted slice strictly
// above v.
func nextAbove(xs []uint64, v uint64) (uint64, bool) {
	for _, x := range xs {
		if x > v {
			return x, true
		}
	}
	return 0, false
}

// OpenAppend opens the journal in dir for appends only, without replaying
// it: the new active segment lands past every file already present. This
// is the takeover path — the standby has already replayed the primary's
// records through a Follower, and re-reading them here would double the
// work (and race the final Poll).
func OpenAppend(dir string, opt Options) (*Journal, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		dir:         dir,
		opt:         opt,
		stop:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	var maxIdx uint64
	if snaps := listIndexed(entries, "snap-", ".snap"); len(snaps) > 0 {
		j.snapSeq = snaps[len(snaps)-1]
		maxIdx = j.snapSeq
	}
	for _, s := range listIndexed(entries, "seg-", ".wal") {
		if s > maxIdx {
			maxIdx = s
		}
		if s >= j.snapSeq {
			j.sealed = append(j.sealed, s)
		}
	}
	j.seg = maxIdx + 1
	if err := j.openSegment(j.seg); err != nil {
		return nil, err
	}
	if opt.Fsync == FsyncBatch {
		go j.flusher()
	} else {
		close(j.flusherDone)
	}
	return j, nil
}
