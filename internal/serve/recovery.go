package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
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
// as self-contained synthetic completion+accept pairs. The accept's wire
// form carries the full graph (not the delta that produced it), so each
// version rebuilds on replay without needing its predecessors. Least
// recently used first, so re-pinning them in order reproduces the store's
// recency; each accept's wire form is built as it is written, so one
// version's encoded graph is alive at a time.
func (s *Server) writeVersions(w *journal.SnapshotWriter, now int64) error {
	for _, v := range s.versions.export() {
		colored := &Response{Fingerprint: v.fp, Colors: v.colors, NumColors: color.NumColors(v.colors)}
		rec := completionRecord(versionRecordID(v.fp), "", cacheKey{fp: v.fp}, colored, nil, true)
		rec.CompletedUnixMS = now
		if err := w.Complete(&rec); err != nil {
			return err
		}
		env := ColorRequest{
			GraphCSRB64: base64.StdEncoding.EncodeToString(graph.EncodeWireCSR(v.g)),
			Resident:    true,
			NoCache:     true,
		}
		wire, err := json.Marshal(&env)
		if err != nil {
			return err
		}
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

// versionRecordID names the synthetic record pair of a snapshot-exported
// graph version.
func versionRecordID(fp uint64) string { return "ver-" + graph.FingerprintString(fp) }

// Recover warm-starts the result cache and idempotency map from replayed
// completions — synchronously, so the executor is warm from the moment
// it is built — and re-submits rec's pending accepts through resubmit in
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
			a.cache.put(cacheKey{fp: c.Fingerprint, policy: c.PolicyKey}, res)
			a.warmCache++
		}
		if c.IdemKey != "" {
			a.idem.put(c.IdemKey, res, c.NoCache, c.PolicyKey)
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
// settled resident pairs, in journal order: snapshot-exported versions
// are self-contained (full graph in the accept's wire form), and a live
// delta record replays against the base version the records before it
// already rebuilt.
func (s *Server) applyVersions(rec *journal.Recovery) {
	if rec == nil {
		return
	}
	for i := range rec.Settled {
		if s.warmVersion(&rec.Settled[i]) {
			s.warmVersions++
		}
	}
}

// warmVersion rebuilds one resident graph version from its settled
// accept+completion pair: the coloring comes from the completion, the
// graph from the accept's wire form — a full graph spec for snapshot
// exports and resident uploads, or a delta applied to an already-rebuilt
// base for live records. Failures (undecodable wire, evicted base, length
// mismatch) skip the version; a later delta against it will report
// unknown base and the client re-uploads.
func (s *Server) warmVersion(sv *journal.SettledVersion) bool {
	colors, err := journal.DecodeColors(sv.Complete.ColorsB64)
	if err != nil || len(colors) == 0 {
		return false
	}
	var cr ColorRequest
	if len(sv.Accept.Wire) == 0 || json.Unmarshal(sv.Accept.Wire, &cr) != nil {
		return false
	}
	var g *graph.Graph
	if cr.BaseFingerprint != "" {
		baseFp, err := ParseFingerprint(cr.BaseFingerprint)
		if err != nil {
			return false
		}
		base, ok := s.versions.get(baseFp)
		if !ok {
			return false
		}
		ng, fp, _, err := graph.ApplyDelta(base.g, &graph.Delta{
			AddVertices: cr.AddVertices,
			AddEdges:    cr.AddEdges,
			RemoveEdges: cr.RemoveEdges,
		})
		if err != nil || fp != sv.Complete.Fingerprint {
			return false
		}
		g = ng
	} else {
		_, rg, err := buildRequest(&cr, s.front.specs)
		if err != nil || rg == nil {
			return false
		}
		g = rg
	}
	if g.NumVertices() != len(colors) {
		return false
	}
	s.versions.put(sv.Complete.Fingerprint, g, colors)
	return true
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
	if len(p.Wire) == 0 || json.Unmarshal(p.Wire, &cr) != nil {
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
