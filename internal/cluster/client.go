package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"gcolor/internal/serve"
)

// NewWorkerClient builds the pooled keep-alive HTTP client used for
// worker calls. Distinct from http.DefaultClient on purpose: a
// coordinator scattering K shards to the same worker needs K warm
// connections to that host, and the default transport's per-host idle
// cap (2) would close and re-dial the rest on every job. conc sizes the
// per-host idle pool (0 means a generous default covering shard.MaxShards
// parallel sub-jobs).
func NewWorkerClient(timeout time.Duration, conc int) *http.Client {
	if conc <= 0 {
		conc = 32
	}
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			// A hung worker must never hang the merge barrier: dials and TLS
			// handshakes are bounded here regardless of the request context.
			// ResponseHeaderTimeout is deliberately NOT set — a routed job
			// legitimately computes for seconds before the first header byte,
			// and the per-call context deadline (workerCtx) bounds that.
			DialContext: (&net.Dialer{
				Timeout:   2 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			TLSHandshakeTimeout: 2 * time.Second,
			MaxIdleConns:        4 * conc,
			MaxIdleConnsPerHost: conc,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// newControlClient builds the client for control-plane calls (join,
// heartbeat probes, standby watch). Unlike worker job calls these are
// small and fast, so the response header itself is deadline-bounded: a
// peer that accepts the connection and then wedges is indistinguishable
// from a dead one within timeout.
func newControlClient(timeout time.Duration) *http.Client {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   timeout,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			TLSHandshakeTimeout:   timeout,
			ResponseHeaderTimeout: timeout,
			MaxIdleConns:          64,
			MaxIdleConnsPerHost:   4,
			IdleConnTimeout:       90 * time.Second,
		},
	}
}

// callWorker POSTs one ColorRequest to a worker's /color and decodes the
// reply into its in-process form. The originating request ID is
// propagated as X-Request-ID (so the worker's journal records the
// coordinator's correlation ID — the cross-hop evidence trail) and
// idemKey, when non-empty, as Idempotency-Key (whole-graph routes only;
// shard sub-jobs never forward it, a single client key fanned out to K
// shards would collide in the workers' idempotency maps). epoch, when
// non-zero, rides as X-GC-Epoch so the worker can fence a deposed
// coordinator. Any failure returns a *WorkerError; a worker's Retry-After
// hint is preserved on it.
func callWorker(ctx context.Context, client *http.Client, workerURL string, cr *serve.ColorRequest, rid, idemKey string, epoch uint64) (*serve.Response, error) {
	body, err := json.Marshal(cr)
	if err != nil {
		return nil, &WorkerError{Worker: workerURL, Kind: "encode", Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+"/color", bytes.NewReader(body))
	if err != nil {
		return nil, &WorkerError{Worker: workerURL, Kind: "request", Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	if epoch > 0 {
		req.Header.Set(serve.EpochHeader, strconv.FormatUint(epoch, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, &WorkerError{Worker: workerURL, Kind: "transport", Err: err}
	}
	defer resp.Body.Close()
	// Bounded read: a worker reply is a coloring, not a graph, but a
	// confused or malicious endpoint must not balloon coordinator memory.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, &WorkerError{Worker: workerURL, Status: resp.StatusCode, Kind: "transport", Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		kind := "failed"
		msg := ""
		var er struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if json.Unmarshal(raw, &er) == nil && er.Kind != "" {
			kind = er.Kind
			msg = er.Error
		}
		retryAfter := 0
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
				retryAfter = secs
			}
		}
		return nil, &WorkerError{
			Worker:     workerURL,
			Status:     resp.StatusCode,
			Kind:       kind,
			RetryAfter: retryAfter,
			Err:        fmt.Errorf("%s", firstNonEmpty(msg, http.StatusText(resp.StatusCode))),
		}
	}
	var out serve.ColorResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, &WorkerError{Worker: workerURL, Status: resp.StatusCode, Kind: "decode", Err: err}
	}
	res, err := serve.ResponseOf(&out)
	if err != nil {
		return nil, &WorkerError{Worker: workerURL, Status: resp.StatusCode, Kind: "decode", Err: err}
	}
	return res, nil
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
