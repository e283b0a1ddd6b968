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

// This file is the server's side of the durability contract with
// internal/journal: journaling hooks on the accept/complete paths, the
// snapshot compaction source, and the startup recovery driver that
// warm-starts caches and re-submits crash-interrupted work.

// journalAccept journals an admitted replayable job before it is pushed,
// and mirrors the accept into pendAccepts for the compaction source. A
// journal write failure is counted, not fatal: the server keeps serving,
// it just cannot promise replay for this job.
func (s *Server) journalAccept(ctx context.Context, req *Request, key cacheKey) {
	rec := journal.AcceptRecord{
		ID:             req.RequestID,
		IdemKey:        req.IdemKey,
		Fingerprint:    key.fp,
		PolicyKey:      key.policy,
		Priority:       int(req.Priority),
		AcceptedUnixMS: time.Now().UnixMilli(),
		Resident:       req.Resident,
		Wire:           req.Wire,
	}
	if dl, ok := ctx.Deadline(); ok {
		rec.DeadlineUnixMS = dl.UnixMilli()
	}
	s.pendMu.Lock()
	s.pendAccepts[rec.ID] = rec
	s.pendMu.Unlock()
	if err := s.jrnl.AppendAccept(rec); err != nil {
		s.reg.Counter("journal_append_errors_total").Inc()
	}
}

// journalFinish journals a completion record for a journaled job and
// clears its pendAccepts mirror. Every disposition is journaled — replay
// must know the job is settled even when the caller saw an error.
func (s *Server) journalFinish(j *job, res *Response, err error) {
	s.pendMu.Lock()
	delete(s.pendAccepts, j.req.RequestID)
	s.pendMu.Unlock()
	rec := completionRecord(j.req.RequestID, j.req.IdemKey, j.key, res, err, j.req.NoCache)
	if aerr := s.jrnl.AppendComplete(rec); aerr != nil {
		s.reg.Counter("journal_append_errors_total").Inc()
	}
}

// completionRecord builds the journal completion for one finished job.
func completionRecord(id, idem string, key cacheKey, res *Response, err error, noCache bool) journal.CompleteRecord {
	rec := journal.CompleteRecord{
		ID:              id,
		IdemKey:         idem,
		Fingerprint:     key.fp,
		PolicyKey:       key.policy,
		Disposition:     dispositionFor(err),
		NoCache:         noCache,
		CompletedUnixMS: time.Now().UnixMilli(),
	}
	if err != nil {
		_, rec.ErrKind = classifyErr(err)
		return rec
	}
	rec.NumColors = res.NumColors
	rec.ColorsB64 = journal.EncodeColors(res.Colors)
	rec.Cycles = res.Cycles
	rec.Iterations = res.Iterations
	rec.Recovery = int(res.Recovery)
	rec.Shards = res.Shards
	return rec
}

// dispositionFor maps a completion error to its journal disposition.
func dispositionFor(err error) string {
	switch {
	case err == nil:
		return journal.DispOK
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShedding):
		return journal.DispRejected
	case errors.Is(err, ErrClosed):
		// Covers ErrDraining (which wraps it): the caller was handed the
		// job back with a typed error and owns the retry.
		return journal.DispHandedOff
	case errors.Is(err, ErrDeadlineInQueue), isDeadline(err):
		return journal.DispExpired
	default:
		return journal.DispFailed
	}
}

// writeSnapshot is the journal's compaction source: the live state worth
// carrying across a compaction — the result cache and idempotency map
// contents as synthetic completion records (least recently used first, so
// replaying them in order reproduces LRU recency), then the still-pending
// accepts — written to w in that order.
func (s *Server) writeSnapshot(w *journal.SnapshotWriter) error {
	s.pendMu.Lock()
	pending := make([]journal.AcceptRecord, 0, len(s.pendAccepts))
	for _, a := range s.pendAccepts {
		pending = append(pending, a)
	}
	s.pendMu.Unlock()
	sort.Slice(pending, func(i, k int) bool { return pending[i].AcceptedUnixMS < pending[k].AcceptedUnixMS })

	now := time.Now().UnixMilli()
	for _, e := range s.cache.export() {
		rec := completionRecord("", "", e.key, cloneHit(e.res), nil, false)
		rec.CompletedUnixMS = now
		if err := w.Complete(&rec); err != nil {
			return err
		}
	}
	for _, e := range s.idem.export() {
		if e.res == nil || e.key == "" {
			continue
		}
		rec := completionRecord("", e.key, cacheKey{fp: e.res.Fingerprint, policy: e.pk}, cloneHit(e.res), nil, e.noCache)
		rec.CompletedUnixMS = now
		if err := w.Complete(&rec); err != nil {
			return err
		}
	}

	// Resident graph versions ride along as self-contained synthetic
	// accept+completion pairs: the accept's wire form carries the full
	// graph (not the delta that produced it), so each version rebuilds on
	// replay without needing its predecessors. Least recently used first,
	// so re-pinning them in order reproduces the store's recency. The
	// completions go with the others; each accept's wire form is built as
	// it is written, so one version's encoded graph is alive at a time.
	versions := s.versions.export()
	for _, v := range versions {
		rec := journal.CompleteRecord{
			ID:              versionRecordID(v.fp),
			Fingerprint:     v.fp,
			Disposition:     journal.DispOK,
			NumColors:       color.NumColors(v.colors),
			ColorsB64:       journal.EncodeColors(v.colors),
			NoCache:         true,
			CompletedUnixMS: now,
		}
		if err := w.Complete(&rec); err != nil {
			return err
		}
	}
	for i := range pending {
		if err := w.Accept(&pending[i]); err != nil {
			return err
		}
	}
	for _, v := range versions {
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

// applyRecovery warm-starts the caches from replayed completions
// (synchronously — NewServer returns with the cache warm) and re-submits
// pending accepts in the background. With no recovery state it just
// closes RecoveryDone.
func (s *Server) applyRecovery(rec *journal.Recovery) {
	if rec == nil {
		close(s.recDone)
		return
	}
	s.recEnabled = true
	s.recReplay = rec.Stats
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
			s.cache.put(cacheKey{fp: c.Fingerprint, policy: c.PolicyKey}, res)
			s.warmCache++
		}
		if c.IdemKey != "" {
			s.idem.put(c.IdemKey, res, c.NoCache, c.PolicyKey)
			s.warmIdem++
		}
	}
	// Rebuild the versioned graph store from the settled resident pairs, in
	// journal order: snapshot-exported versions are self-contained (full
	// graph in the accept's wire form), and a live delta record replays
	// against the base version the records before it already rebuilt.
	specs := newSpecCache(8)
	for i := range rec.Settled {
		if s.warmVersion(&rec.Settled[i], specs) {
			s.warmVersions++
		}
	}

	s.recPending = int64(len(rec.Pending))
	pending := rec.Pending
	go func() {
		defer close(s.recDone)
		sem := make(chan struct{}, s.cfg.ReplayParallelism)
		var wg sync.WaitGroup
		for i := range pending {
			wg.Add(1)
			sem <- struct{}{}
			go func(a *journal.AcceptRecord) {
				defer func() { <-sem; wg.Done() }()
				s.replayOne(a)
			}(&pending[i])
		}
		wg.Wait()
	}()
}

// warmVersion rebuilds one resident graph version from its settled
// accept+completion pair: the coloring comes from the completion, the
// graph from the accept's wire form — a full graph spec for snapshot
// exports and resident uploads, or a delta applied to an already-rebuilt
// base for live records. Failures (undecodable wire, evicted base, length
// mismatch) skip the version; a later delta against it will report
// unknown base and the client re-uploads.
func (s *Server) warmVersion(sv *journal.SettledVersion, specs *specCache) bool {
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
		_, rg, err := buildRequest(&cr, specs)
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

// replayOne re-executes one crash-interrupted accepted job. Every path
// journals a completion for the record's ID — possibly a duplicate of the
// one finishJob wrote, which replay dedupes — so the accept can never
// stay pending across another restart.
func (s *Server) replayOne(a *journal.AcceptRecord) {
	key := cacheKey{fp: a.Fingerprint, policy: a.PolicyKey}
	settle := func(res *Response, err error, noCache bool) {
		rec := completionRecord(a.ID, a.IdemKey, key, res, err, noCache)
		if aerr := s.jrnl.AppendComplete(rec); aerr != nil {
			s.reg.Counter("journal_append_errors_total").Inc()
		}
	}
	if a.DeadlineUnixMS > 0 && time.Now().UnixMilli() >= a.DeadlineUnixMS {
		s.reg.Counter("replay_expired_total").Inc()
		rec := completionRecord(a.ID, a.IdemKey, key, nil, context.DeadlineExceeded, true)
		rec.Disposition = journal.DispReplayExpired
		if aerr := s.jrnl.AppendComplete(rec); aerr != nil {
			s.reg.Counter("journal_append_errors_total").Inc()
		}
		return
	}
	var cr ColorRequest
	if len(a.Wire) == 0 || json.Unmarshal(a.Wire, &cr) != nil {
		s.reg.Counter("replay_failed_total").Inc()
		settle(nil, errors.New("serve: replay: unreplayable accept record"), true)
		return
	}
	req, _, err := buildRequest(&cr, newSpecCache(8))
	if err != nil {
		s.reg.Counter("replay_failed_total").Inc()
		settle(nil, err, true)
		return
	}
	req.RequestID = a.ID
	req.IdemKey = a.IdemKey
	req.Wire = a.Wire
	ctx := s.baseCtx
	if a.DeadlineUnixMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.UnixMilli(a.DeadlineUnixMS))
		defer cancel()
	}
	s.reg.Counter("replay_enqueued_total").Inc()
	res, err := s.Submit(ctx, req)
	switch {
	case err == nil:
		s.reg.Counter("replay_completed_total").Inc()
		// The executed path journaled its own completion; cache, idem, and
		// coalesced answers did not. Settle unconditionally — duplicates
		// are idempotent under replay — so the accept is always paired.
		settle(res, nil, cr.NoCache)
	case errors.Is(err, ErrDeadlineInQueue), isDeadline(err):
		s.reg.Counter("replay_expired_total").Inc()
		settle(nil, err, cr.NoCache)
	default:
		s.reg.Counter("replay_failed_total").Inc()
		settle(nil, err, cr.NoCache)
	}
}

// RecoveryDone is closed once startup replay has settled every pending
// job recovered from the journal (immediately when there was nothing to
// recover).
func (s *Server) RecoveryDone() <-chan struct{} { return s.recDone }

// RecoveryInfo is the programmatic form of GET /recoveryz: what the
// journal replay found, what was warmed, and how the pending re-submits
// went.
type RecoveryInfo struct {
	// Enabled reports that the server was built with journal recovery.
	Enabled bool `json:"enabled"`
	// Done reports that every recovered pending job has settled.
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
	// (completed + expired + failed = settled).
	PendingRecovered int64 `json:"pending_recovered"`
	ReplayEnqueued   int64 `json:"replay_enqueued"`
	ReplayCompleted  int64 `json:"replay_completed"`
	ReplayExpired    int64 `json:"replay_expired"`
	ReplayFailed     int64 `json:"replay_failed"`
	// Journal is the live journal's counters (nil when journaling is off).
	Journal *journal.Stats `json:"journal,omitempty"`
}

// RecoveryInfo snapshots the recovery state.
func (s *Server) RecoveryInfo() RecoveryInfo {
	info := RecoveryInfo{
		Enabled:          s.recEnabled,
		Replay:           s.recReplay,
		WarmedCache:      s.warmCache,
		WarmedIdem:       s.warmIdem,
		WarmedVersions:   s.warmVersions,
		PendingRecovered: s.recPending,
		ReplayEnqueued:   s.reg.Counter("replay_enqueued_total").Value(),
		ReplayCompleted:  s.reg.Counter("replay_completed_total").Value(),
		ReplayExpired:    s.reg.Counter("replay_expired_total").Value(),
		ReplayFailed:     s.reg.Counter("replay_failed_total").Value(),
	}
	select {
	case <-s.recDone:
		info.Done = true
	default:
	}
	if s.jrnl != nil {
		st := s.jrnl.Stats()
		info.Journal = &st
	}
	return info
}
