package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncMode selects when appended records are forced to stable storage.
type FsyncMode int

const (
	// FsyncBatch (the default) marks the journal dirty on append and
	// fsyncs from a background flusher every Options.FsyncInterval: group
	// commit. A crash can lose at most the last interval's records; the
	// idempotency keys of the clients in that window cover the retry.
	FsyncBatch FsyncMode = iota
	// FsyncAlways fsyncs inside every append: no loss window, highest
	// per-request cost.
	FsyncAlways
	// FsyncNone never fsyncs (the OS flushes on its own schedule). For
	// benchmarks and tests; survives process crash, not power loss.
	FsyncNone
)

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return "batch"
	}
}

// ParseFsyncMode converts a mode name as printed by String.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "batch", "":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "none", "off":
		return FsyncNone, nil
	}
	return FsyncBatch, fmt.Errorf("journal: unknown fsync mode %q (want always, batch, or none)", s)
}

// Options tunes a Journal. Zero values take the documented defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it crosses this size
	// (default 4 MiB).
	SegmentBytes int64
	// Fsync selects the durability mode (default FsyncBatch).
	Fsync FsyncMode
	// FsyncInterval is the batch-mode group-commit interval (default 25ms).
	// Shorter intervals shrink the crash-loss window but burn measurable
	// CPU in the kernel at high request rates; 25ms keeps journal
	// throughput overhead in the low single digits.
	FsyncInterval time.Duration
	// CompactAfterSegments triggers a snapshot compaction when more than
	// this many sealed segments accumulate behind the active one
	// (default 4; negative disables automatic compaction).
	CompactAfterSegments int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 25 * time.Millisecond
	}
	if o.CompactAfterSegments == 0 {
		o.CompactAfterSegments = 4
	}
	return o
}

// Stats counts a Journal's lifetime work (atomically readable while
// appends continue).
type Stats struct {
	Appends       int64  `json:"appends"`       // records appended
	AppendBytes   int64  `json:"append_bytes"`  // framed bytes appended
	Fsyncs        int64  `json:"fsyncs"`        // fsync calls issued
	Rotations     int64  `json:"rotations"`     // segment rotations
	Compactions   int64  `json:"compactions"`   // snapshot compactions completed
	AppendErrors  int64  `json:"append_errors"` // appends that failed (disk error); serving continued
	ActiveSegment uint64 `json:"active_segment"`
	LiveSegments  int    `json:"live_segments"` // sealed + active segment files on disk
}

// Journal is an open write-ahead journal rooted at a directory. All
// methods are safe for concurrent use. The caller owns Close.
type Journal struct {
	dir string
	opt Options

	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	seg     uint64 // active segment index
	size    int64  // bytes written to the active segment
	sealed  []uint64
	dirty   bool
	closed  bool
	snapSeq uint64 // highest snapshot index on disk (0 = none)

	source     func(*SnapshotWriter) error
	compacting atomic.Bool
	// compactRuns counts compactions that have claimed their run, each
	// registered under mu before Close; Close waits on it, so no
	// compaction touches the directory after Close returns.
	compactRuns sync.WaitGroup

	stop        chan struct{}
	flusherDone chan struct{}

	appends, appendBytes, fsyncs, rotations, compactions, appendErrs atomic.Int64
}

func segmentName(i uint64) string  { return fmt.Sprintf("seg-%08d.wal", i) }
func snapshotName(i uint64) string { return fmt.Sprintf("snap-%08d.snap", i) }

// parseIndexed extracts the index of a "prefix-NNNNNNNN.ext" name.
func parseIndexed(name, prefix, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ext)
	v, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Open replays any existing journal in dir (creating it if absent),
// returns the recovered state, and opens a fresh active segment for
// appends. Replay is tolerant by construction: torn tails are truncated,
// corrupt records counted and skipped, and no input makes Open fail
// other than the directory itself being unusable.
func Open(dir string, opt Options) (*Journal, *Recovery, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		dir:         dir,
		opt:         opt,
		stop:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	rec, maxSeg, snapSeq, err := j.replayDir()
	if err != nil {
		return nil, nil, err
	}
	j.snapSeq = snapSeq
	// Appends always go to a fresh segment past everything replayed: the
	// old tail may have been truncated mid-frame, and never appending to
	// a file that predates this process keeps crash forensics simple.
	j.seg = maxSeg + 1
	if err := j.openSegment(j.seg); err != nil {
		return nil, nil, err
	}
	if opt.Fsync == FsyncBatch {
		go j.flusher()
	} else {
		close(j.flusherDone)
	}
	return j, rec, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// SetSource registers the state snapshot used by automatic compaction.
// The source writes the live state worth keeping (the completions of cache
// contents and idempotency results, then the still-pending accepts) to w in
// replay order, one record at a time, so a large record need not outlive
// its write. Called once by the owning server.
func (j *Journal) SetSource(fn func(w *SnapshotWriter) error) {
	j.mu.Lock()
	j.source = fn
	j.mu.Unlock()
}

// Stats returns a snapshot of the journal's lifetime counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	live := len(j.sealed) + 1 // sealed files plus the active segment
	active := j.seg
	j.mu.Unlock()
	return Stats{
		Appends:       j.appends.Load(),
		AppendBytes:   j.appendBytes.Load(),
		Fsyncs:        j.fsyncs.Load(),
		Rotations:     j.rotations.Load(),
		Compactions:   j.compactions.Load(),
		AppendErrors:  j.appendErrs.Load(),
		ActiveSegment: active,
		LiveSegments:  live,
	}
}

// AppendAccept journals an admitted job. It must happen-before the job
// is enqueued so a crash cannot hold work the journal never saw.
func (j *Journal) AppendAccept(r AcceptRecord) error {
	return j.append(record{Accept: &r})
}

// AppendComplete journals a finished job (any disposition).
func (j *Journal) AppendComplete(r CompleteRecord) error {
	return j.append(record{Complete: &r})
}

// AppendCompletes journals a group of finished jobs as one append: every
// record is marshalled and framed up front, then the concatenated frames go
// to the segment under a single lock acquisition — and, under FsyncAlways,
// a single fsync. This is the completion fan-out path for batched kernel
// dispatch, where one launch settles many journaled jobs at once; paying
// one durable write for the group instead of one per member keeps batching
// a win in FsyncAlways deployments. Each record is still an independent
// frame on disk, so replay is indistinguishable from individual appends.
func (j *Journal) AppendCompletes(rs []CompleteRecord) error {
	if len(rs) == 0 {
		return nil
	}
	var frames []byte
	for i := range rs {
		payload, err := json.Marshal(&record{Complete: &rs[i]})
		if err != nil {
			j.appendErrs.Add(1)
			return fmt.Errorf("journal: marshal: %w", err)
		}
		frames = encodeFrame(frames, payload)
	}

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		j.appendErrs.Add(1)
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.bw.Write(frames); err != nil {
		j.mu.Unlock()
		j.appendErrs.Add(1)
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frames))
	j.appends.Add(int64(len(rs)))
	j.appendBytes.Add(int64(len(frames)))
	switch j.opt.Fsync {
	case FsyncAlways:
		if err := j.syncLocked(); err != nil {
			j.mu.Unlock()
			j.appendErrs.Add(1)
			return err
		}
	default:
		j.dirty = true
	}
	var rotateErr error
	if j.size >= j.opt.SegmentBytes {
		rotateErr = j.rotateLocked()
	}
	compact := j.claimCompactionLocked()
	j.mu.Unlock()
	if compact {
		go j.runCompaction()
	}
	if rotateErr != nil {
		j.appendErrs.Add(1)
		return rotateErr
	}
	return nil
}

func (j *Journal) append(rec record) error {
	payload, err := json.Marshal(&rec)
	if err != nil {
		j.appendErrs.Add(1)
		return fmt.Errorf("journal: marshal: %w", err)
	}
	frame := encodeFrame(nil, payload)

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		j.appendErrs.Add(1)
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.bw.Write(frame); err != nil {
		j.mu.Unlock()
		j.appendErrs.Add(1)
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frame))
	j.appends.Add(1)
	j.appendBytes.Add(int64(len(frame)))
	switch j.opt.Fsync {
	case FsyncAlways:
		if err := j.syncLocked(); err != nil {
			j.mu.Unlock()
			j.appendErrs.Add(1)
			return err
		}
	default:
		j.dirty = true
	}
	var rotateErr error
	if j.size >= j.opt.SegmentBytes {
		rotateErr = j.rotateLocked()
	}
	compact := j.claimCompactionLocked()
	j.mu.Unlock()
	if compact {
		go j.runCompaction()
	}
	if rotateErr != nil {
		j.appendErrs.Add(1)
		return rotateErr
	}
	return nil
}

// syncLocked flushes the buffered writer and fsyncs the active segment.
func (j *Journal) syncLocked() error {
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if j.opt.Fsync != FsyncNone {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.fsyncs.Add(1)
	}
	j.dirty = false
	return nil
}

func (j *Journal) openSegment(i uint64) error {
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(i)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	j.bw = bufio.NewWriterSize(f, 64<<10)
	if _, err := j.bw.Write(segmentMagic[:]); err != nil {
		return fmt.Errorf("journal: segment header: %w", err)
	}
	j.size = int64(len(segmentMagic))
	return nil
}

// rotateLocked seals the active segment (flushed and fsynced — a sealed
// segment is always fully durable) and opens the next.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	j.sealed = append(j.sealed, j.seg)
	j.seg++
	j.rotations.Add(1)
	return j.openSegment(j.seg)
}

// claimCompactionLocked claims the compaction flag for a background run
// when sealed segments have piled up past the threshold and no compaction
// is running, and registers the run for Close to wait on. The caller holds
// mu on an open journal and must start runCompaction when it returns true.
func (j *Journal) claimCompactionLocked() bool {
	if j.opt.CompactAfterSegments < 0 || j.source == nil ||
		len(j.sealed) <= j.opt.CompactAfterSegments ||
		!j.compacting.CompareAndSwap(false, true) {
		return false
	}
	j.compactRuns.Add(1)
	return true
}

// runCompaction writes a snapshot of the owner's live state covering
// every sealed segment, then deletes them. Runs off the append path; a
// failed compaction leaves the sealed segments in place (still correct,
// just un-compacted) and will be retried at the next trigger.
func (j *Journal) runCompaction() {
	defer j.compactRuns.Done()
	defer j.compacting.Store(false)
	j.compactOwned()
}

// compactOwned does the compaction work; the caller holds the
// j.compacting flag. A compaction that reaches this point after Close
// does nothing.
func (j *Journal) compactOwned() {
	j.mu.Lock()
	source := j.source
	if source == nil || j.closed {
		j.mu.Unlock()
		return
	}
	// The snapshot covers everything before the current active segment.
	// State is snapshotted AFTER this boundary is fixed: any record that
	// lands in the active segment concurrently is replayed on top of the
	// snapshot, and replay is idempotent (later records win).
	cover := j.seg
	sealed := append([]uint64(nil), j.sealed...)
	j.mu.Unlock()

	if err := j.writeSnapshot(cover, source); err != nil {
		return
	}

	j.mu.Lock()
	oldSnap := j.snapSeq
	j.snapSeq = cover
	var keep []uint64
	for _, s := range j.sealed {
		if s >= cover {
			keep = append(keep, s)
		}
	}
	j.sealed = keep
	j.mu.Unlock()

	for _, s := range sealed {
		if s < cover {
			_ = os.Remove(filepath.Join(j.dir, segmentName(s)))
		}
	}
	if oldSnap > 0 && oldSnap != cover {
		_ = os.Remove(filepath.Join(j.dir, snapshotName(oldSnap)))
	}
	j.compactions.Add(1)
}

// Compact forces a synchronous compaction from the registered source,
// waiting out any background compaction already in flight.
func (j *Journal) Compact() error {
	j.mu.Lock()
	if j.source == nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: no compaction source registered")
	}
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("journal: closed")
	}
	j.compactRuns.Add(1)
	j.mu.Unlock()
	defer j.compactRuns.Done()
	for !j.compacting.CompareAndSwap(false, true) {
		time.Sleep(time.Millisecond)
	}
	defer j.compacting.Store(false)
	j.compactOwned()
	return nil
}

// SnapshotWriter frames a compaction source's records into the snapshot
// being written. Each record is encoded into buffers the writer reuses, so
// a source that builds one large record at a time holds at most one.
type SnapshotWriter struct {
	bw      *bufio.Writer
	payload bytes.Buffer
	enc     *json.Encoder
	frame   []byte
}

func newSnapshotWriter(bw *bufio.Writer) *SnapshotWriter {
	w := &SnapshotWriter{bw: bw}
	w.enc = json.NewEncoder(&w.payload)
	return w
}

// Complete writes one completion record.
func (w *SnapshotWriter) Complete(r *CompleteRecord) error { return w.write(record{Complete: r}) }

// Accept writes one accept record.
func (w *SnapshotWriter) Accept(r *AcceptRecord) error { return w.write(record{Accept: r}) }

func (w *SnapshotWriter) write(rec record) error {
	w.payload.Reset()
	if err := w.enc.Encode(&rec); err != nil {
		return err
	}
	// Encode ends the JSON with a newline that json.Marshal, and so a
	// segment record, does not have.
	payload := bytes.TrimSuffix(w.payload.Bytes(), []byte{'\n'})
	w.frame = encodeFrame(w.frame[:0], payload)
	_, err := w.bw.Write(w.frame)
	return err
}

// writeSnapshot writes the compacted state as snap-<cover>.snap in the
// same frame format as a segment, atomically (tmp + fsync + rename).
func (j *Journal) writeSnapshot(cover uint64, source func(*SnapshotWriter) error) (err error) {
	path := filepath.Join(j.dir, snapshotName(cover))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			_ = os.Remove(tmp) // best effort: replay never reads a .tmp file
		}
	}()
	w := newSnapshotWriter(bufio.NewWriterSize(f, 256<<10))
	if _, err := w.bw.Write(segmentMagic[:]); err != nil {
		return err
	}
	if err := source(w); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// flusher is the batch-mode group-commit loop.
func (j *Journal) flusher() {
	defer close(j.flusherDone)
	t := time.NewTicker(j.opt.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			// Flush under the lock, fsync outside it: holding mu across the
			// fsync would stall every append (and with it the accept and
			// completion paths) for the disk's sync latency each interval.
			j.mu.Lock()
			if j.closed || !j.dirty {
				j.mu.Unlock()
				continue
			}
			if err := j.bw.Flush(); err != nil {
				j.mu.Unlock()
				continue
			}
			j.dirty = false
			f := j.f
			j.mu.Unlock()
			// A concurrent rotation may have closed f; its data was synced by
			// the rotation itself and Sync on a closed *os.File fails safely.
			if f.Sync() == nil {
				j.fsyncs.Add(1)
			}
		}
	}
}

// Close flushes, fsyncs, and closes the journal, then waits for a
// compaction in flight to finish; one that has not started yet never
// will, so nothing touches the directory after Close returns. Appends
// after Close fail; Close is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	close(j.stop)
	j.closed = true
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.mu.Unlock()
	<-j.flusherDone
	// Compaction takes mu to finish, so wait without holding it.
	j.compactRuns.Wait()
	return err
}

// listIndexed returns the sorted indices of dir entries matching
// prefix-NNNNNNNN ext.
func listIndexed(entries []os.DirEntry, prefix, ext string) []uint64 {
	var out []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if v, ok := parseIndexed(e.Name(), prefix, ext); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
