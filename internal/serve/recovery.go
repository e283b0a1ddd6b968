package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"gcolor/internal/color"
	"gcolor/internal/gpucolor"
	"gcolor/internal/graph"
	"gcolor/internal/journal"
)

// This file is the durability half of the admission front door, the side
// of the contract with internal/journal that runs outside the request
// path: the snapshot compaction source, and the startup recovery
// that warm-starts the caches and re-submits crash-interrupted work. A
// Server adds its resident graph versions to both.

// writeSnapshot is the journal's compaction source: the live state worth
// carrying across a compaction — the result cache and idempotency map
// contents as synthetic completion records (least recently used first, so
// replaying them in order reproduces LRU recency), then the still-pending
// accepts, then the executor's extras — written to w in that order.
func (a *Admission) writeSnapshot(w *journal.SnapshotWriter) error {
	a.pendMu.Lock()
	pending := make([]journal.AcceptRecord, 0, len(a.pendAccepts))
	for _, p := range a.pendAccepts {
		pending = append(pending, p)
	}
	a.pendMu.Unlock()
	sort.Slice(pending, func(i, k int) bool { return pending[i].AcceptedUnixMS < pending[k].AcceptedUnixMS })

	now := time.Now().UnixMilli()
	for _, e := range a.cache.export() {
		rec := completionRecord("", "", e.key, cloneHit(e.res), nil, false)
		rec.CompletedUnixMS = now
		if err := w.Complete(&rec); err != nil {
			return err
		}
	}
	for _, e := range a.idem.export() {
		if e.res == nil || e.key == "" {
			continue
		}
		rec := completionRecord("", e.key, cacheKey{fp: e.res.Fingerprint, policy: e.pk}, cloneHit(e.res), nil, e.noCache)
		rec.CompletedUnixMS = now
		if err := w.Complete(&rec); err != nil {
			return err
		}
	}
	for i := range pending {
		if err := w.Accept(&pending[i]); err != nil {
			return err
		}
	}
	if a.snapshotExtra != nil {
		return a.snapshotExtra(w, now)
	}
	return nil
}

// writeVersions is a Server's snapshot extra: its resident graph versions
// as synthetic completion+accept pairs, least recently used first, so
// re-pinning them in order reproduces the store's recency. A version whose
// recorded base was written earlier in this snapshot is written as the
// delta that made it (base fingerprint plus edit lists, the wire form of a
// live journaled delta), which replay re-applies to the rebuilt base. Every
// other version (the oldest of a chain here, a fork off a more recent
// version, one whose base was evicted, an upload, a re-pin by an empty
// delta) carries its full graph as a graph_csr_b64 frame, encoded into
// buffers reused across versions.
func (s *Server) writeVersions(w *journal.SnapshotWriter, now int64) error {
	versions := s.versions.export()
	written := make(map[uint64]bool, len(versions))
	var frame, full []byte
	for _, v := range versions {
		colored := &Response{Fingerprint: v.fp, Colors: v.colors, NumColors: color.NumColors(v.colors)}
		rec := completionRecord(versionRecordID(v.fp), "", cacheKey{fp: v.fp}, colored, nil, true)
		rec.CompletedUnixMS = now
		if err := w.Complete(&rec); err != nil {
			return err
		}
		var wire []byte
		// A version re-pinned by an empty delta is its own base, which is
		// never written before it.
		if v.delta != nil && written[v.base] {
			var err error
			wire, err = json.Marshal(&ColorRequest{
				BaseFingerprint: graph.FingerprintString(v.base),
				AddVertices:     v.delta.AddVertices,
				AddEdges:        v.delta.AddEdges,
				RemoveEdges:     v.delta.RemoveEdges,
				NoCache:         true,
				Resident:        true,
			})
			if err != nil {
				return err
			}
		} else {
			frame = graph.AppendWireCSR(frame[:0], v.g)
			full = appendCSRWire(full[:0], frame)
			wire = full
		}
		written[v.fp] = true
		if err := w.Accept(&journal.AcceptRecord{
			ID:             versionRecordID(v.fp),
			Fingerprint:    v.fp,
			AcceptedUnixMS: now,
			Resident:       true,
			Wire:           wire,
		}); err != nil {
			return err
		}
	}
	return nil
}

// appendCSRWire appends the snapshot wire form of a full-graph version,
// byte for byte json.Marshal(&ColorRequest{GraphCSRB64: <frame in
// base64>, NoCache: true, Resident: true}): base64 needs no JSON escaping.
func appendCSRWire(dst, frame []byte) []byte {
	const head, tail = `{"graph_csr_b64":"`, `","no_cache":true,"resident":true}`
	n := base64.StdEncoding.EncodedLen(len(frame))
	dst = slices.Grow(dst, len(head)+n+len(tail))
	dst = append(dst, head...)
	dst = dst[:len(dst)+n]
	base64.StdEncoding.Encode(dst[len(dst)-n:], frame)
	return append(dst, tail...)
}

// versionRecordID names the synthetic record pair of a snapshot-exported
// graph version.
func versionRecordID(fp uint64) string { return "ver-" + graph.FingerprintString(fp) }

// Recover warm-starts the result cache and idempotency map from replayed
// completions — synchronously, so the executor is warm from the moment
// it is built; entries of both are marked warm, to be proved on first use —
// and re-submits rec's pending accepts through resubmit in
// the background, at most ReplayParallelism at a time, each bounded by its
// accept's own deadline. Every pending accept is in pendAccepts until its
// replay settles, so a compaction meanwhile carries the ones not yet
// re-run; once draining, the rest are left pending for the next start.
// With no recovery state it just closes RecoveryDone. Call it once, after
// the executor can serve and before anything appends to the journal.
func (a *Admission) Recover(rec *journal.Recovery, resubmit func(ctx context.Context, cr *ColorRequest, req *Request) (*Response, error)) {
	if rec == nil {
		close(a.recDone)
		return
	}
	a.recEnabled = true
	a.recReplay = rec.Stats
	for i := range rec.Completions {
		c := &rec.Completions[i]
		colors, err := journal.DecodeColors(c.ColorsB64)
		if err != nil {
			continue
		}
		res := packResponse(&Response{
			Fingerprint: c.Fingerprint,
			Colors:      colors,
			NumColors:   c.NumColors,
			Cycles:      c.Cycles,
			Iterations:  c.Iterations,
			Recovery:    gpucolor.RecoveryLevel(c.Recovery),
			Shards:      c.Shards,
			Device:      -1,
		})
		if !c.NoCache {
			a.cache.put(cacheKey{fp: c.Fingerprint, policy: c.PolicyKey}, res, true)
			a.warmCache++
		}
		if c.IdemKey != "" {
			a.idem.put(c.IdemKey, res, c.NoCache, c.PolicyKey, true)
			a.warmIdem++
		}
	}
	a.recPending = int64(len(rec.Pending))
	pending := rec.Pending
	a.pendMu.Lock()
	for _, p := range pending {
		a.pendAccepts[p.ID] = p
	}
	a.pendMu.Unlock()
	go func() {
		defer close(a.recDone)
		sem := make(chan struct{}, a.parallel)
		var wg sync.WaitGroup
		for i := range pending {
			sem <- struct{}{}
			if a.Draining() {
				a.reg.Counter("replay_deferred_total").Add(int64(len(pending) - i))
				break
			}
			wg.Add(1)
			go func(p *journal.AcceptRecord) {
				defer func() { <-sem; wg.Done() }()
				a.replayOne(p, resubmit)
			}(&pending[i])
		}
		wg.Wait()
	}()
}

// applyVersions rebuilds a Server's versioned graph store from the
// settled resident pairs, in dependency order. A full-graph record (a
// resident upload, or a snapshot's chain root) rebuilds on its own, and a
// delta record once its base has: at its place in journal order when the
// base came earlier, else right after the base rebuilds. The base's newest
// pair can settle after the delta (the base re-uploaded later, or re-pinned
// in a segment after the snapshot that holds the delta). A version whose
// newest wire form cannot rebuild (yet) tries its older ones, and waits on
// the base of each delta among them. A version none of whose bases ever
// rebuilds is dropped.
func (s *Server) applyVersions(rec *journal.Recovery) {
	if rec == nil {
		return
	}
	waiting := make(map[uint64][]*journal.SettledVersion) // base fp -> versions waiting on it
	pinned := make(map[uint64]bool)
	for i := range rec.Settled {
		queue := []*journal.SettledVersion{&rec.Settled[i]}
		for k := 0; k < len(queue); k++ {
			sv := queue[k]
			fp := sv.Complete.Fingerprint
			if pinned[fp] {
				continue // rebuilt already, through another base it waited on
			}
			ok, bases := s.warmVersion(sv)
			if !ok {
				for _, b := range bases {
					waiting[b] = append(waiting[b], sv)
				}
				continue
			}
			pinned[fp] = true
			s.warmVersions++
			queue = append(queue, waiting[fp]...)
			delete(waiting, fp)
		}
	}
}

// warmVersion rebuilds one resident graph version from its settled
// accept+completion pair: the coloring comes from the completion, the
// graph from the first of the accept's and the older pairs' wire forms
// that rebuilds it — a full graph spec for resident uploads and a
// snapshot's full-graph records, or a delta applied to its rebuilt base
// for live and snapshot delta records; the rebuilt version remembers
// which. The coloring must pass a full Verify against that graph before it
// is pinned: the incremental path proves a delta step only where it
// changed, which is a full proof only over a proper base, and a journal
// record is CRC-checked, not checked against its graph. It reports whether
// it pinned the version, and otherwise the bases of the deltas that wait
// for one. Other failures (undecodable wire, a fingerprint or length
// mismatch, an improper coloring) skip the version; a later delta against
// it will report unknown base and the client re-uploads.
func (s *Server) warmVersion(sv *journal.SettledVersion) (pinned bool, waits []uint64) {
	colors, err := journal.DecodeColors(sv.Complete.ColorsB64)
	if err != nil || len(colors) == 0 {
		return false, nil
	}
	fp := sv.Complete.Fingerprint
	for _, wire := range append([]json.RawMessage{sv.Accept.Wire}, sv.OlderWires...) {
		g, base, d, wait := s.rebuildGraph(wire, fp)
		if wait {
			waits = append(waits, base)
		}
		if g == nil {
			continue
		}
		if g.NumVertices() != len(colors) || color.Verify(g, colors) != nil {
			return false, nil
		}
		s.versions.put(fp, g, colors, base, d)
		return true, nil
	}
	return false, waits
}

// rebuildGraph decodes one journaled wire form of the version fp into its
// graph: a full graph spec, or a delta applied to its base version (the
// delta and base are returned too). A delta whose base is not in the
// store returns no graph and that base with wait set; any other failure
// returns no graph.
func (s *Server) rebuildGraph(wire []byte, fp uint64) (g *graph.Graph, base uint64, d *graph.Delta, wait bool) {
	var cr ColorRequest
	if _, err := decodeColorRequest(wire, &cr); err != nil {
		return nil, 0, nil, false
	}
	if cr.BaseFingerprint == "" {
		_, g, _ = buildRequest(&cr, s.front.specs)
		return g, 0, nil, false
	}
	base, err := ParseFingerprint(cr.BaseFingerprint)
	if err != nil {
		return nil, 0, nil, false
	}
	bv, ok := s.versions.get(base)
	if !ok {
		return nil, base, nil, true
	}
	d = &graph.Delta{AddVertices: cr.AddVertices, AddEdges: cr.AddEdges, RemoveEdges: cr.RemoveEdges}
	ng, nfp, _, err := graph.ApplyDelta(bv.g, d)
	if err != nil || nfp != fp {
		return nil, 0, nil, false
	}
	return ng, base, d, false
}

// replayOne re-executes one crash-interrupted accepted job and settles
// it: one completion record for the accept's ID, and the accept leaves
// pendAccepts. The re-run itself journals nothing — its request carries no
// wire form — since the original accept is still live. A re-run the
// executor refused without starting it (drain, a full queue, a shed) is
// not settled: no client holds a replayed job to retry it, so it stays
// pending for the next start.
func (a *Admission) replayOne(p *journal.AcceptRecord, resubmit func(context.Context, *ColorRequest, *Request) (*Response, error)) {
	key := cacheKey{fp: p.Fingerprint, policy: p.PolicyKey}
	settle := func(rec journal.CompleteRecord) {
		a.pendMu.Lock()
		delete(a.pendAccepts, p.ID)
		a.pendMu.Unlock()
		a.appendComplete(rec)
	}
	if p.DeadlineUnixMS > 0 && time.Now().UnixMilli() >= p.DeadlineUnixMS {
		a.reg.Counter("replay_expired_total").Inc()
		rec := completionRecord(p.ID, p.IdemKey, key, nil, context.DeadlineExceeded, true)
		rec.Disposition = journal.DispReplayExpired
		settle(rec)
		return
	}
	var cr ColorRequest
	if _, err := decodeColorRequest(p.Wire, &cr); err != nil {
		a.reg.Counter("replay_failed_total").Inc()
		settle(completionRecord(p.ID, p.IdemKey, key, nil, errors.New("serve: replay: unreplayable accept record"), true))
		return
	}
	req, _, err := buildRequest(&cr, a.specs)
	if err != nil {
		a.reg.Counter("replay_failed_total").Inc()
		settle(completionRecord(p.ID, p.IdemKey, key, nil, err, true))
		return
	}
	req.RequestID = p.ID
	req.IdemKey = p.IdemKey
	ctx := a.base
	if p.DeadlineUnixMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.UnixMilli(p.DeadlineUnixMS))
		defer cancel()
	}
	a.reg.Counter("replay_enqueued_total").Inc()
	res, err := resubmit(ctx, &cr, req)
	switch d := dispositionFor(err); {
	case d == journal.DispRejected, d == journal.DispHandedOff:
		a.reg.Counter("replay_deferred_total").Inc()
		return
	case err == nil:
		a.reg.Counter("replay_completed_total").Inc()
	case d == journal.DispExpired:
		a.reg.Counter("replay_expired_total").Inc()
	default:
		a.reg.Counter("replay_failed_total").Inc()
	}
	settle(completionRecord(p.ID, p.IdemKey, key, res, err, cr.NoCache))
}

// RecoveryDone is closed once startup replay has settled (or deferred)
// every pending job recovered from the journal (immediately when there was
// nothing to recover).
func (s *Server) RecoveryDone() <-chan struct{} { return s.front.recDone }

// RecoveryInfo is the programmatic form of GET /recoveryz: what the
// journal replay found, what was warmed, and how the pending re-submits
// went.
type RecoveryInfo struct {
	// Enabled reports that the server was built with journal recovery.
	Enabled bool `json:"enabled"`
	// Done reports that startup replay is over: every recovered pending
	// job has settled or been deferred.
	Done bool `json:"done"`
	// Replay describes the journal scan (segments, torn tails, corrupt
	// segments, record counts).
	Replay journal.ReplayStats `json:"replay"`
	// WarmedCache / WarmedIdem count completion records loaded into the
	// result cache and idempotency map at startup; WarmedVersions the
	// resident graph versions rebuilt from settled journal pairs.
	WarmedCache    int64 `json:"warmed_cache"`
	WarmedIdem     int64 `json:"warmed_idem"`
	WarmedVersions int64 `json:"warmed_versions"`
	// PendingRecovered is the number of accepted-but-unfinished jobs the
	// journal held; the Replay* counters say how their re-submission went
	// (completed + expired + failed = settled). ReplayDeferred counts the
	// jobs drain or admission refused, or that drain kept from starting:
	// they stay pending in the journal for the next start.
	PendingRecovered int64 `json:"pending_recovered"`
	ReplayEnqueued   int64 `json:"replay_enqueued"`
	ReplayCompleted  int64 `json:"replay_completed"`
	ReplayExpired    int64 `json:"replay_expired"`
	ReplayFailed     int64 `json:"replay_failed"`
	ReplayDeferred   int64 `json:"replay_deferred"`
	// Journal is the live journal's counters (nil when journaling is off).
	Journal *journal.Stats `json:"journal,omitempty"`
}

// RecoveryInfo snapshots the recovery state.
func (a *Admission) RecoveryInfo() RecoveryInfo {
	info := RecoveryInfo{
		Enabled:          a.recEnabled,
		Replay:           a.recReplay,
		WarmedCache:      a.warmCache,
		WarmedIdem:       a.warmIdem,
		PendingRecovered: a.recPending,
		ReplayEnqueued:   a.reg.Counter("replay_enqueued_total").Value(),
		ReplayCompleted:  a.reg.Counter("replay_completed_total").Value(),
		ReplayExpired:    a.reg.Counter("replay_expired_total").Value(),
		ReplayFailed:     a.reg.Counter("replay_failed_total").Value(),
		ReplayDeferred:   a.reg.Counter("replay_deferred_total").Value(),
	}
	select {
	case <-a.recDone:
		info.Done = true
	default:
	}
	if a.jrnl != nil {
		st := a.jrnl.Stats()
		info.Journal = &st
	}
	return info
}

// RecoveryInfo is the server's Admission.RecoveryInfo plus the resident
// versions it rebuilt.
func (s *Server) RecoveryInfo() RecoveryInfo {
	info := s.front.RecoveryInfo()
	info.WarmedVersions = s.warmVersions
	return info
}
