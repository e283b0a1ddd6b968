package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gcolor/internal/serve"
)

// Handler wraps a Coordinator with the gcolord coordinator HTTP API:
//
//	POST /color         submit a job (serve.ColorRequest -> ColorResponse);
//	                    the coordinator routes or scatter-gathers it
//	GET  /healthz       liveness + live worker count
//	GET  /metricsz      flat text metrics (cluster_* counters plus
//	                    per-worker health and breaker state)
//	GET  /clusterz      JSON membership snapshot (per-worker health,
//	                    breaker, job counts, liveness)
//	POST /cluster/join  worker registration: {"addr":"http://host:port"}
//	GET  /drainz        drain status
//	POST /drainz        request a graceful drain
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /color", func(w http.ResponseWriter, r *http.Request) {
		handleColor(c, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := c.Stats()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","role":"coordinator","workers":%d,"alive_workers":%d,"epoch":%d,"fenced":%v,"queue_depth":%d}`+"\n",
			st.Workers, st.AliveWorkers, st.Epoch, st.Fenced, st.FleetQueueDepth)
	})
	mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, r *http.Request) {
		st := c.Stats()
		var sb strings.Builder
		fmt.Fprintf(&sb, "cluster_workers %d\n", st.Workers)
		fmt.Fprintf(&sb, "cluster_alive_workers %d\n", st.AliveWorkers)
		fmt.Fprintf(&sb, "cluster_jobs_total %d\n", st.Jobs)
		fmt.Fprintf(&sb, "cluster_delta_jobs_total %d\n", st.DeltaJobs)
		fmt.Fprintf(&sb, "cluster_delta_owner_hits_total %d\n", st.DeltaOwnerHits)
		fmt.Fprintf(&sb, "cluster_delta_owner_misses_total %d\n", st.DeltaOwnerMisses)
		fmt.Fprintf(&sb, "cluster_version_owners %d\n", st.VersionOwners)
		fmt.Fprintf(&sb, "cluster_routed_total %d\n", st.Routed)
		fmt.Fprintf(&sb, "cluster_scattered_total %d\n", st.Scattered)
		fmt.Fprintf(&sb, "cluster_failed_total %d\n", st.Failed)
		fmt.Fprintf(&sb, "cluster_route_failovers_total %d\n", st.RouteFailovers)
		fmt.Fprintf(&sb, "cluster_redispatches_total %d\n", st.Redispatches)
		fmt.Fprintf(&sb, "cluster_joins_total %d\n", st.Joins)
		fmt.Fprintf(&sb, "cluster_quarantines_total %d\n", st.Quarantines)
		fmt.Fprintf(&sb, "cluster_readmitted_total %d\n", st.Readmitted)
		fmt.Fprintf(&sb, "cluster_probes_total %d\n", st.Probes)
		fmt.Fprintf(&sb, "cluster_cache_hits_total %d\n", st.CacheHits)
		fmt.Fprintf(&sb, "cluster_cache_misses_total %d\n", st.CacheMisses)
		fmt.Fprintf(&sb, "cluster_cache_evictions_total %d\n", st.CacheEvictions)
		fmt.Fprintf(&sb, "cluster_cache_entries %d\n", st.CacheEntries)
		fmt.Fprintf(&sb, "cluster_idem_entries %d\n", st.IdemEntries)
		fmt.Fprintf(&sb, "cluster_inflight %d\n", st.Inflight)
		fmt.Fprintf(&sb, "cluster_draining %d\n", boolToInt(st.Draining))
		fmt.Fprintf(&sb, "cluster_recovery_done %d\n", boolToInt(st.RecoveryDone))
		fmt.Fprintf(&sb, "cluster_recovery_pending %d\n", st.RecoveryPending)
		fmt.Fprintf(&sb, "cluster_recovery_replayed %d\n", st.RecoveryReplayed)
		fmt.Fprintf(&sb, "cluster_recovery_failed %d\n", st.RecoveryFailed)
		fmt.Fprintf(&sb, "cluster_recovery_warmed_cache %d\n", st.WarmedCache)
		fmt.Fprintf(&sb, "cluster_recovery_warmed_idem %d\n", st.WarmedIdem)
		fmt.Fprintf(&sb, "cluster_epoch %d\n", st.Epoch)
		fmt.Fprintf(&sb, "cluster_fenced %d\n", boolToInt(st.Fenced))
		fmt.Fprintf(&sb, "cluster_stale_epoch_rejects_total %d\n", st.StaleRejects)
		fmt.Fprintf(&sb, "cluster_takeover_ms %d\n", st.TakeoverMS)
		fmt.Fprintf(&sb, "cluster_shed_total %d\n", st.Shed)
		fmt.Fprintf(&sb, "cluster_gray_demotions_total %d\n", st.GrayDemotions)
		fmt.Fprintf(&sb, "cluster_heartbeat_demotions_total %d\n", st.HeartbeatDemotions)
		fmt.Fprintf(&sb, "cluster_heartbeat_readmissions_total %d\n", st.HeartbeatReadmissions)
		fmt.Fprintf(&sb, "cluster_rebinds_total %d\n", st.Rebinds)
		fmt.Fprintf(&sb, "cluster_fleet_queue_depth %d\n", st.FleetQueueDepth)
		fmt.Fprintf(&sb, "cluster_fleet_devices %d\n", st.FleetDevices)
		for _, m := range st.Members {
			fmt.Fprintf(&sb, "cluster_worker_health_%d %.4f\n", m.ID, m.Health)
			fmt.Fprintf(&sb, "cluster_worker_alive_%d %d\n", m.ID, boolToInt(m.Alive))
			fmt.Fprintf(&sb, "cluster_worker_breaker_%d %d\n", m.ID, breakerCode(m.Breaker))
			fmt.Fprintf(&sb, "cluster_worker_jobs_%d %d\n", m.ID, m.Jobs)
			fmt.Fprintf(&sb, "cluster_worker_failures_%d %d\n", m.ID, m.Failures)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, sb.String())
	})
	mux.HandleFunc("GET /clusterz", func(w http.ResponseWriter, r *http.Request) {
		st := c.Stats()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("POST /cluster/join", func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			writeClusterErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("read: %v", err), "")
			return
		}
		jr, err := ParseJoinRequest(raw)
		if err != nil {
			writeClusterErr(w, http.StatusBadRequest, "bad_request", err.Error(), "")
			return
		}
		res, err := c.Join(jr)
		if err != nil {
			var stale *StaleEpochError
			if errors.As(err, &stale) {
				writeClusterErr(w, http.StatusConflict, "stale_epoch", err.Error(), "")
				return
			}
			writeClusterErr(w, http.StatusBadRequest, "bad_request", err.Error(), "")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(res)
	})
	drainStatus := func(w http.ResponseWriter) {
		st := c.Stats()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"draining": st.Draining,
			"inflight": st.Inflight,
			"workers":  st.Workers,
		})
	}
	mux.HandleFunc("GET /drainz", func(w http.ResponseWriter, r *http.Request) {
		drainStatus(w)
	})
	mux.HandleFunc("POST /drainz", func(w http.ResponseWriter, r *http.Request) {
		c.RequestDrain()
		w.WriteHeader(http.StatusAccepted)
		drainStatus(w)
	})
	return mux
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func breakerCode(s string) int {
	switch s {
	case "open":
		return 1
	case "half-open":
		return 2
	default:
		return 0
	}
}

// handleColor is the coordinator's /color: same wire contract as a
// worker's /color (a coordinator is a drop-in endpoint for gcload), with
// the colors filtered per-request — the coordinator holds full colorings
// internally for caching and merge verification.
func handleColor(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	rid := serve.RequestIDFor(r)
	w.Header().Set("X-Request-ID", rid)
	raw, err := serve.ReadBody(w, r, serve.DefaultMaxBodyBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeClusterErr(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), rid)
			return
		}
		writeClusterErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("read: %v", err), rid)
		return
	}
	var cr serve.ColorRequest
	if err := json.Unmarshal(raw, &cr); err != nil {
		writeClusterErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decode: %v", err), rid)
		return
	}
	idemKey := serve.SanitizeRequestID(r.Header.Get("Idempotency-Key"))
	ctx := r.Context()
	if cr.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(cr.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, err := c.Submit(ctx, &cr, rid, idemKey, raw)
	if err != nil {
		status, kind := classifyClusterErr(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			// End-to-end backpressure: prefer the failing worker's own hint,
			// else compute one from the fleet's reported queue depths, so the
			// client's backoff reflects actual fleet load either way.
			secs := 0
			var we *WorkerError
			if errors.As(err, &we) {
				secs = we.RetryAfter
			}
			if secs <= 0 {
				secs = c.RetryAfterHint(kind)
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeClusterErr(w, status, kind, err.Error(), rid)
		return
	}
	out := *res
	out.RequestID = rid
	if !cr.IncludeColors {
		out.Colors = nil
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&out)
}

// classifyClusterErr maps coordinator failures to HTTP status + kind. A
// worker's own typed rejection passes through with the worker's status so
// clients see the same contract whether they hit a worker or the fleet.
func classifyClusterErr(err error) (int, string) {
	var bad *BadRequestError
	var we *WorkerError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, serve.ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrFleetBusy):
		return http.StatusTooManyRequests, "fleet_busy"
	case errors.Is(err, ErrNoWorkers):
		return http.StatusServiceUnavailable, "no_workers"
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "deadline"
	case errors.As(err, &we) && we.Status > 0:
		return we.Status, we.Kind
	case errors.As(err, &we):
		return http.StatusBadGateway, "worker_unreachable"
	default:
		return http.StatusBadGateway, "fleet_failed"
	}
}

func writeClusterErr(w http.ResponseWriter, status int, kind, msg, rid string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "kind": kind, "request_id": rid})
}
