package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func followAccept(id string) AcceptRecord {
	return AcceptRecord{ID: id, Fingerprint: 7, PolicyKey: 9, Wire: json.RawMessage(`{"gen":"rand:100:0.05:1"}`)}
}

func followComplete(id string) CompleteRecord {
	return CompleteRecord{ID: id, Fingerprint: 7, PolicyKey: 9, Disposition: DispOK, NumColors: 3, ColorsB64: EncodeColors([]int32{0, 1, 2})}
}

// A follower tailing a live journal must converge to exactly the state
// Open would recover: completed jobs out of pending, newest completions
// kept.
func TestFollowerTailsLiveJournal(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(dir)

	// Accepts with no completions: all pending.
	for _, id := range []string{"a", "b", "c"} {
		if err := j.AppendAccept(followAccept(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Recovery().Pending); got != 3 {
		t.Fatalf("pending after accepts = %d, want 3", got)
	}

	// Complete two; the follower must retire them incrementally.
	if err := j.AppendComplete(followComplete("a")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendComplete(followComplete("c")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	rec := f.Recovery()
	if len(rec.Pending) != 1 || rec.Pending[0].ID != "b" {
		t.Fatalf("pending = %+v, want just b", rec.Pending)
	}

	// Force rotations so the follower crosses sealed segments.
	for i := 0; i < 200; i++ {
		if err := j.AppendAccept(followAccept("bulk")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendComplete(followComplete("bulk")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	rec = f.Recovery()
	if len(rec.Pending) != 1 || rec.Pending[0].ID != "b" {
		t.Fatalf("pending after bulk = %d records, want just b", len(rec.Pending))
	}
	if f.Stats().Segments < 2 {
		t.Fatalf("segments followed = %d, want rotation coverage", f.Stats().Segments)
	}

	// Cross-check against a fresh Open of the same directory.
	j2, open, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(open.Pending) != len(rec.Pending) {
		t.Fatalf("follower pending %d != Open pending %d", len(rec.Pending), len(open.Pending))
	}
}

// A torn tail on the ACTIVE segment is in-flight data, not corruption:
// the follower must wait it out, then pick the frame up once the writer
// completes it.
func TestFollowerWaitsOutTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(1))

	payload, err := json.Marshal(&record{Accept: &AcceptRecord{ID: "x", Wire: json.RawMessage(`{}`)}})
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(nil, payload)

	full := append([]byte{}, segmentMagic[:]...)
	full = append(full, frame...)
	full = append(full, frame[:len(frame)/2]...) // second frame half-flushed

	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	f := NewFollower(dir)
	if n, err := f.Poll(); err != nil || n != 1 {
		t.Fatalf("first poll applied %d (%v), want 1", n, err)
	}
	if f.Stats().TornTails != 0 {
		t.Fatalf("active-segment tail counted as torn")
	}

	// The writer finishes the flush; the same bytes now decode.
	if err := os.WriteFile(path, append(append([]byte{}, segmentMagic[:]...), append(frame, frame...)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Poll(); err != nil || n != 1 {
		t.Fatalf("second poll applied %d (%v), want 1", n, err)
	}
}

// OpenAppend must land its active segment past every existing file and
// leave prior records untouched for a later full replay.
func TestOpenAppendDoesNotReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAccept(followAccept("old")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenAppend(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Stats().ActiveSegment < 2 {
		t.Fatalf("active segment = %d, want past the replayed one", j2.Stats().ActiveSegment)
	}
	if err := j2.AppendAccept(followAccept("new")); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(rec.Pending) != 2 {
		t.Fatalf("full replay pending = %d, want both the old and new accepts", len(rec.Pending))
	}
}

// A follower must survive the primary compacting under it: once the
// snapshot replaces the segments the follower has read (or never got to),
// Recovery() must still match what Open recovers from the same directory.
func TestFollowerAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone, SegmentBytes: 512, CompactAfterSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The owner's live state, as a server's compaction source reports it.
	pending := map[string]AcceptRecord{}
	var done []CompleteRecord
	j.SetSource(func(w *SnapshotWriter) error {
		for i := range done {
			if err := w.Complete(&done[i]); err != nil {
				return err
			}
		}
		for id := range pending {
			a := pending[id]
			if err := w.Accept(&a); err != nil {
				return err
			}
		}
		return nil
	})
	f := NewFollower(dir)
	poll := func() {
		t.Helper()
		if _, err := f.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	poll() // before any record
	for i := 0; i < 40; i++ {
		a := followAccept(fmt.Sprintf("job-%02d", i))
		pending[a.ID] = a
		if err := j.AppendAccept(a); err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			poll() // mid-stream, inside a segment the compaction deletes
		}
	}
	for i := 0; i < 20; i++ {
		c := followComplete(fmt.Sprintf("job-%02d", i))
		c.Fingerprint = uint64(100 + i) // distinct results, none deduped
		delete(pending, c.ID)
		done = append(done, c)
		if err := j.AppendComplete(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	// Records after the compaction boundary replay on top of the snapshot.
	a := followAccept("after")
	if err := j.AppendAccept(a); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	poll()

	j2, open, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, want := pendingIDs(f.Recovery()), pendingIDs(open)
	if len(want) != 21 || !slices.Equal(got, want) {
		t.Fatalf("follower pending %v, Open pending %v (want the 20 unfinished jobs plus one)", got, want)
	}
	if g, w := len(f.Recovery().Completions), len(open.Completions); g != w || w != 20 {
		t.Fatalf("follower completions %d, Open completions %d, want 20", g, w)
	}
	if !open.Stats.SnapshotLoaded || !f.Stats().SnapshotLoaded {
		t.Fatalf("snapshot loaded: open=%v follower=%v, want both", open.Stats.SnapshotLoaded, f.Stats().SnapshotLoaded)
	}
}

func pendingIDs(rec *Recovery) []string {
	ids := make([]string, 0, len(rec.Pending))
	for _, a := range rec.Pending {
		ids = append(ids, a.ID)
	}
	slices.Sort(ids)
	return ids
}
