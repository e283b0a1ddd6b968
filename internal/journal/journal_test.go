package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opt Options) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

func acceptRec(id string, fp, pk uint64) AcceptRecord {
	return AcceptRecord{
		ID: id, Fingerprint: fp, PolicyKey: pk,
		AcceptedUnixMS: time.Now().UnixMilli(),
		Wire:           json.RawMessage(`{"gen":"grid:4:4"}`),
	}
}

func completeRec(id string, fp, pk uint64, colors []int32) CompleteRecord {
	return CompleteRecord{
		ID: id, Fingerprint: fp, PolicyKey: pk, Disposition: DispOK,
		NumColors: 2, ColorsB64: EncodeColors(colors),
		CompletedUnixMS: time.Now().UnixMilli(),
	}
}

func TestColorsRoundTrip(t *testing.T) {
	for _, colors := range [][]int32{nil, {}, {0}, {1, 2, 3, -1, 1 << 30}, make([]int32, 1000)} {
		got, err := DecodeColors(EncodeColors(colors))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(colors) {
			t.Fatalf("len %d, want %d", len(got), len(colors))
		}
		for i := range colors {
			if got[i] != colors[i] {
				t.Fatalf("colors[%d] = %d, want %d", i, got[i], colors[i])
			}
		}
	}
	if _, err := DecodeColors("!!!"); err == nil {
		t.Fatal("bad base64 decoded")
	}
	if _, err := DecodeColors("AAAA AA"); err == nil {
		t.Fatal("misaligned colors decoded")
	}
	if _, err := DecodeColors("wQUJD"); err == nil {
		t.Fatal("misaligned wide colors decoded")
	}
	if _, err := DecodeColors("zQUJD"); err == nil {
		t.Fatal("unknown codec decoded")
	}
	if s := EncodeColors([]int32{0, 255, 7}); s[0] != 'b' {
		t.Fatalf("narrow palette encoded as %q, want byte codec", s[0])
	}
	if s := EncodeColors([]int32{0, 256}); s[0] != 'w' {
		t.Fatalf("wide palette encoded as %q, want int32 codec", s[0])
	}
}

// TestReplayRoundTrip appends accepts and completions, reopens, and
// checks pending/completed separation survives the restart.
func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, dir, Options{Fsync: FsyncNone})
	if len(rec.Pending) != 0 || len(rec.Completions) != 0 {
		t.Fatalf("fresh journal recovered state: %+v", rec)
	}
	// Job a: accepted and completed. Job b: accepted only (the crash
	// victim). Job c: accepted, failed (terminal — must not replay).
	if err := j.AppendAccept(acceptRec("a", 1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAccept(acceptRec("b", 2, 20)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendComplete(completeRec("a", 1, 10, []int32{0, 1})); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAccept(acceptRec("c", 3, 30)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendComplete(CompleteRecord{ID: "c", Fingerprint: 3, PolicyKey: 30, Disposition: DispFailed, ErrKind: "failed"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := mustOpen(t, dir, Options{Fsync: FsyncNone})
	defer j2.Close()
	if len(rec2.Pending) != 1 || rec2.Pending[0].ID != "b" {
		t.Fatalf("pending = %+v, want [b]", rec2.Pending)
	}
	if len(rec2.Completions) != 1 || rec2.Completions[0].ID != "a" {
		t.Fatalf("completions = %+v, want [a]", rec2.Completions)
	}
	st := rec2.Stats
	if st.Accepts != 3 || st.Completes != 2 || st.TornTails != 0 || st.CorruptSegments != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Re-accepting b (the replay path) and completing it clears pending
	// on the next open.
	if err := j2.AppendAccept(acceptRec("b", 2, 20)); err != nil {
		t.Fatal(err)
	}
	if err := j2.AppendComplete(completeRec("b", 2, 20, []int32{0})); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, rec3 := mustOpen(t, dir, Options{Fsync: FsyncNone})
	defer j3.Close()
	if len(rec3.Pending) != 0 {
		t.Fatalf("pending after replayed completion: %+v", rec3.Pending)
	}
	if len(rec3.Completions) != 2 {
		t.Fatalf("completions = %+v, want a and b", rec3.Completions)
	}
}

// TestAppendCompletesGroup: a grouped completion append settles every
// member on replay exactly as individual appends would, costs one fsync for
// the whole group under FsyncAlways, and an empty group is a no-op.
func TestAppendCompletesGroup(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{Fsync: FsyncAlways})
	var group []CompleteRecord
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("g%d", i)
		if err := j.AppendAccept(acceptRec(id, uint64(i), uint64(10*i))); err != nil {
			t.Fatal(err)
		}
		group = append(group, completeRec(id, uint64(i), uint64(10*i), []int32{int32(i)}))
	}
	before := j.Stats()
	if err := j.AppendCompletes(nil); err != nil {
		t.Fatalf("empty group: %v", err)
	}
	if got := j.Stats(); got.Appends != before.Appends || got.Fsyncs != before.Fsyncs {
		t.Fatalf("empty group touched the journal: %+v -> %+v", before, got)
	}
	if err := j.AppendCompletes(group); err != nil {
		t.Fatal(err)
	}
	after := j.Stats()
	if after.Appends != before.Appends+5 {
		t.Fatalf("appends = %d, want %d", after.Appends, before.Appends+5)
	}
	if after.Fsyncs != before.Fsyncs+1 {
		t.Fatalf("fsyncs = %d, want exactly one for the group (was %d)", after.Fsyncs, before.Fsyncs)
	}
	j.Close()
	_, rec := mustOpen(t, dir, Options{Fsync: FsyncNone})
	if len(rec.Pending) != 0 {
		t.Fatalf("pending after grouped completions: %+v", rec.Pending)
	}
	if len(rec.Completions) != 5 {
		t.Fatalf("completions = %d, want 5", len(rec.Completions))
	}
}

// TestNewestCompletionWins checks the (fp, pk) dedupe keeps the latest
// result in replay order.
func TestNewestCompletionWins(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{Fsync: FsyncNone})
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("r%d", i)
		if err := j.AppendAccept(acceptRec(id, 7, 70)); err != nil {
			t.Fatal(err)
		}
		c := completeRec(id, 7, 70, []int32{int32(i)})
		if err := j.AppendComplete(c); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	_, rec := mustOpen(t, dir, Options{Fsync: FsyncNone})
	if len(rec.Completions) != 1 || rec.Completions[0].ID != "r2" {
		t.Fatalf("completions = %+v, want just r2", rec.Completions)
	}
}

// TestSegmentRotation drives enough records through a tiny segment size
// to rotate several times, then checks replay sees everything.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 512, CompactAfterSegments: -1})
	const n = 50
	for i := 0; i < n; i++ {
		if err := j.AppendAccept(acceptRec(fmt.Sprintf("job-%d", i), uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Rotations == 0 {
		t.Fatalf("no rotations with 512-byte segments after %d appends", n)
	}
	j.Close()
	j2, rec := mustOpen(t, dir, Options{Fsync: FsyncNone})
	defer j2.Close()
	if len(rec.Pending) != n {
		t.Fatalf("recovered %d pending, want %d", len(rec.Pending), n)
	}
	if rec.Stats.Segments < 2 {
		t.Fatalf("replayed %d segments, want several", rec.Stats.Segments)
	}
	// Order must be accept order.
	for i, a := range rec.Pending {
		if a.ID != fmt.Sprintf("job-%d", i) {
			t.Fatalf("pending[%d] = %s, out of order", i, a.ID)
		}
	}
}

// TestCompaction registers a source, forces compaction, and checks old
// segments are deleted while replay still reproduces the state.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 256, CompactAfterSegments: 1})
	// Live state the source reports: one pending job, one completion.
	j.SetSource(func(w *SnapshotWriter) error {
		done := completeRec("done", 6, 60, []int32{0, 1, 0})
		if err := w.Complete(&done); err != nil {
			return err
		}
		pend := acceptRec("pend", 5, 50)
		return w.Accept(&pend)
	})
	for i := 0; i < 80; i++ {
		if err := j.AppendAccept(acceptRec(fmt.Sprintf("x%d", i), uint64(i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Compactions == 0 {
		t.Fatal("forced Compact did not run")
	}
	j.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs int
	for _, e := range entries {
		if _, ok := parseIndexed(e.Name(), "snap-", ".snap"); ok {
			snaps++
		}
		if _, ok := parseIndexed(e.Name(), "seg-", ".wal"); ok {
			segs++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots on disk, want 1", snaps)
	}
	if segs > 3 {
		t.Fatalf("%d segments survived compaction, want few", segs)
	}

	_, rec := mustOpen(t, dir, Options{Fsync: FsyncNone})
	if !rec.Stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded on reopen")
	}
	ids := map[string]bool{}
	for _, a := range rec.Pending {
		ids[a.ID] = true
	}
	if !ids["pend"] {
		t.Fatalf("snapshot pending job lost: %v", ids)
	}
	found := false
	for _, c := range rec.Completions {
		if c.ID == "done" {
			found = true
		}
	}
	if !found {
		t.Fatal("snapshot completion lost")
	}
	// Records appended after the compaction boundary replay on top: the
	// accepts in the still-live segments must be present too.
	if len(rec.Pending) < 2 {
		t.Fatalf("post-snapshot accepts lost: %d pending", len(rec.Pending))
	}
}

// TestFsyncModes smoke-tests each mode end to end.
func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncBatch, FsyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			j, _ := mustOpen(t, dir, Options{Fsync: mode, FsyncInterval: time.Millisecond})
			for i := 0; i < 10; i++ {
				if err := j.AppendAccept(acceptRec(fmt.Sprintf("m%d", i), uint64(i), 3)); err != nil {
					t.Fatal(err)
				}
			}
			if mode == FsyncBatch {
				time.Sleep(20 * time.Millisecond) // let group commit fire
				if j.Stats().Fsyncs == 0 {
					t.Fatal("batch mode never fsynced")
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := mustOpen(t, dir, Options{Fsync: FsyncNone})
			if len(rec.Pending) != 10 {
				t.Fatalf("recovered %d records, want 10", len(rec.Pending))
			}
		})
	}
	if st := func() Stats {
		j, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncAlways})
		defer j.Close()
		j.AppendAccept(acceptRec("s", 1, 1))
		return j.Stats()
	}(); st.Fsyncs == 0 {
		t.Fatal("always mode never fsynced")
	}
}

func TestParseFsyncMode(t *testing.T) {
	cases := map[string]FsyncMode{"": FsyncBatch, "batch": FsyncBatch, "always": FsyncAlways, "none": FsyncNone, "off": FsyncNone}
	for in, want := range cases {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Error("bad mode accepted")
	}
}

// TestAppendAfterClose fails typed, and counts the error.
func TestAppendAfterClose(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{Fsync: FsyncNone})
	j.Close()
	if err := j.AppendAccept(acceptRec("late", 1, 1)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if j.Stats().AppendErrors == 0 {
		t.Fatal("append error not counted")
	}
}

// TestCrashMidCompactionLeftovers simulates a crash that left both the
// snapshot and the segments it covers on disk: replay must not double
// the state.
func TestCrashMidCompactionLeftovers(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 256})
	j.SetSource(func(w *SnapshotWriter) error {
		p := acceptRec("p", 9, 90)
		return w.Accept(&p)
	})
	for i := 0; i < 40; i++ {
		j.AppendAccept(acceptRec(fmt.Sprintf("y%d", i), uint64(i), 4))
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	// Resurrect a covered segment as if deletion had not finished.
	leftover := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(leftover, append(segmentMagic[:], encodeFrame(nil, mustMarshal(t, record{Accept: &AcceptRecord{ID: "stale"}}))...), 0o644); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, rec := mustOpen(t, dir, Options{Fsync: FsyncNone})
	for _, a := range rec.Pending {
		if a.ID == "stale" {
			t.Fatal("segment covered by snapshot was replayed")
		}
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatal("covered leftover segment not cleaned up")
	}
}

func mustMarshal(t *testing.T, rec record) []byte {
	t.Helper()
	b, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSettledVersionPairing: resident accepts pair with their DispOK
// completions into Recovery.Settled regardless of arrival order (live
// segments write accept-then-completion; snapshots the reverse), newest
// pair per fingerprint wins, and non-resident or unfinished jobs never
// appear there.
func TestSettledVersionPairing(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{Fsync: FsyncNone})
	res := func(id string, fp uint64) AcceptRecord {
		a := acceptRec(id, fp, 10)
		a.Resident = true
		return a
	}
	// v1: resident, accept then completion (live order).
	if err := j.AppendAccept(res("v1", 100)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendComplete(completeRec("v1", 100, 10, []int32{0, 1})); err != nil {
		t.Fatal(err)
	}
	// v2: resident, completion journaled before the accept (snapshot order).
	if err := j.AppendComplete(completeRec("v2", 200, 10, []int32{1, 0})); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAccept(res("v2", 200)); err != nil {
		t.Fatal(err)
	}
	// v3: resident but never completed — pending, not settled.
	if err := j.AppendAccept(res("v3", 300)); err != nil {
		t.Fatal(err)
	}
	// n1: completed but not resident — completion only.
	if err := j.AppendAccept(acceptRec("n1", 400, 10)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendComplete(completeRec("n1", 400, 10, []int32{0})); err != nil {
		t.Fatal(err)
	}
	// v4 re-settles fingerprint 100: the newer pair must win.
	if err := j.AppendAccept(res("v4", 100)); err != nil {
		t.Fatal(err)
	}
	c4 := completeRec("v4", 100, 10, []int32{1, 2})
	c4.NumColors = 3
	if err := j.AppendComplete(c4); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, rec := mustOpen(t, dir, Options{Fsync: FsyncNone})
	defer j2.Close()
	if len(rec.Settled) != 2 {
		t.Fatalf("settled = %+v, want v2 and v4", rec.Settled)
	}
	byFp := map[uint64]SettledVersion{}
	for _, s := range rec.Settled {
		if s.Accept.ID != s.Complete.ID {
			t.Fatalf("mispaired: accept %q with completion %q", s.Accept.ID, s.Complete.ID)
		}
		byFp[s.Accept.Fingerprint] = s
	}
	if s, ok := byFp[200]; !ok || s.Accept.ID != "v2" {
		t.Errorf("fp 200 settled = %+v, want v2", s)
	}
	if s, ok := byFp[100]; !ok || s.Accept.ID != "v4" || s.Complete.NumColors != 3 {
		t.Errorf("fp 100 settled = %+v, want newest pair v4", s)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].ID != "v3" {
		t.Fatalf("pending = %+v, want [v3]", rec.Pending)
	}
	if !rec.Pending[0].Resident {
		t.Error("pending resident accept lost its Resident flag")
	}
}

// TestCloseWaitsForCompaction blocks a background compaction inside its
// source and closes the journal: Close must return only after the source
// is released and the compaction has finished with the directory, and no
// compaction may start once the journal is closed.
func TestCloseWaitsForCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 256, CompactAfterSegments: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	j.SetSource(func(w *SnapshotWriter) error {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		p := acceptRec("p", 9, 90)
		return w.Accept(&p)
	})
	// Append until a rotation claims a background compaction.
	for i := 0; !j.compacting.Load(); i++ {
		if err := j.AppendAccept(acceptRec(fmt.Sprintf("z%d", i), uint64(i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	for !journalClosed(j) {
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a compaction was blocked in its source")
	default:
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	// The compaction counter moves after the snapshot is renamed into
	// place and the covered segments are deleted: its last directory step.
	if got := j.Stats().Compactions; got != 1 {
		t.Fatalf("%d compactions finished before Close returned, want 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("%s left behind after Close", e.Name())
		}
	}
	if err := j.Compact(); err == nil {
		t.Fatal("Compact ran on a closed journal")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("source called %d times, want 1 (no compaction after Close)", got)
	}
}

func journalClosed(j *Journal) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closed
}

// TestSnapshotWriterFramesLikeAppend: a snapshot record is framed from
// the same bytes json.Marshal gives a segment record.
func TestSnapshotWriterFramesLikeAppend(t *testing.T) {
	var out bytes.Buffer
	w := newSnapshotWriter(bufio.NewWriter(&out))
	a := acceptRec("a<&>", 1, 2)
	a.Wire = json.RawMessage(`{"graph_csr_b64": "R0NTUg==", "note": "<&>"}`)
	c := completeRec("c", 3, 4, []int32{0, 1, 2})
	var want []byte
	for _, rec := range []record{{Accept: &a}, {Complete: &c}, {Accept: &a}} {
		if rec.Accept != nil {
			if err := w.Accept(rec.Accept); err != nil {
				t.Fatal(err)
			}
		} else if err := w.Complete(rec.Complete); err != nil {
			t.Fatal(err)
		}
		want = encodeFrame(want, mustMarshal(t, rec))
	}
	if err := w.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("snapshot frames differ from segment frames:\n got %q\nwant %q", out.Bytes(), want)
	}
}
