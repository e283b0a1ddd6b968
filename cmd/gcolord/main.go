// Command gcolord is the graph-coloring daemon: it owns a pool of
// simulated GPU devices and serves coloring requests over HTTP with
// admission control, request coalescing, and a result cache (see
// internal/serve).
//
// Usage:
//
//	gcolord -addr :8421 -devices 4
//	gcolord -devices 2 -cus 14 -queue 128 -shed 0.5 -cache 1024
//	gcolord -devices 4 -chaos -fault-rate 1e-4      # chaos serving
//	gcolord -pprof                                  # + /debug/pprof/ endpoints
//	gcolord -drain-timeout 30s                      # graceful-drain deadline
//	gcolord -shard-auto-vertices 4096 -max-body 8388608   # sharding + body cap
//	gcolord -journal-dir /var/lib/gcolord/wal             # crash-safe serving
//
// Each pooled device has one executor, and the pool splits GOMAXPROCS
// across its devices' simulation goroutines. Self-healing (per-device
// health scores, circuit breakers and hedged re-dispatch) is always on.
//
// With -journal-dir set, every accepted job is journaled before it is
// enqueued and its result journaled on completion. After a crash the
// daemon replays the journal on startup: finished results warm the cache,
// unfinished jobs whose deadlines haven't passed are re-executed, and
// client retries carrying an Idempotency-Key get their original answer.
//
// Endpoints:
//
//	POST /color     submit a job; JSON body, see serve.ColorRequest
//	GET  /healthz   liveness and pool size
//	GET  /metricsz  queue depth, wait/exec latency, cache hit rate,
//	                shed counts, device utilization, per-device health
//	                and breaker state (flat text)
//	GET  /drainz    drain status; POST /drainz requests a graceful drain
//	GET  /recoveryz journal replay / warm-start status after a restart
//
// Shutdown: SIGTERM/SIGINT (or POST /drainz) stops admission, lets queued
// and in-flight jobs finish, and logs a structured summary. If the drain
// exceeds -drain-timeout, still-queued jobs are handed back to their
// callers and gcolord exits with status 7 (drain timeout).
//
// Example request:
//
//	curl -s localhost:8421/color -d '{"gen":"rmat:10:8:1","alg":"hybrid"}'
//
// Cluster roles (see internal/cluster): a coordinator owns no devices and
// fans work out to worker daemons; a worker is a normal daemon that also
// announces itself to a coordinator.
//
//	gcolord -role coordinator -addr :8420 -peers http://h1:8421,http://h2:8421
//	gcolord -role worker -addr :8421 -join http://coord:8420 -advertise http://h1:8421
//	gcolord -standby http://coord:8420 -addr :8420 -journal-dir /shared/wal
//
// A journaled coordinator acquires a fencing epoch from a lease file in
// its journal directory; every dispatch carries the epoch and workers
// reject dispatches from older epochs (409 stale_epoch). A -standby
// process tails the same journal directory, probes the primary, and on
// sustained silence takes over the front-door address at the next epoch,
// re-dispatching accepted-but-unfinished jobs with zero loss.
//
// The coordinator serves the same POST /color contract, plus
// GET /clusterz (membership: per-worker health, breaker state, liveness)
// and POST /cluster/join (worker registration). Small graphs are routed
// whole by rendezvous hashing on the graph fingerprint; large graphs are
// split with the edge-balanced partitioner, scattered across workers, and
// merge-repaired at the coordinator. With -journal-dir, accepted fleet
// jobs survive coordinator crashes and are re-dispatched on restart.
//
// The shard flags (-no-shard, -shard-k, -shard-auto-vertices,
// -shard-auto-edges) set one policy for every role: a server splits a
// large job across its pooled devices, a coordinator or a promoted standby
// across its live workers, and -no-shard runs every job whole on either.
// Journaling is off exactly when -journal-dir is empty.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gcolor/internal/cluster"
	"gcolor/internal/journal"
	"gcolor/internal/serve"
	"gcolor/internal/shard"
)

func main() {
	var (
		addr     = flag.String("addr", ":8421", "listen address")
		devices  = flag.Int("devices", 4, "number of pooled devices")
		cus      = flag.Int("cus", 28, "compute units per device")
		wgSize   = flag.Int("wg", 256, "workgroup size per device")
		wave     = flag.Int("wavefront", 64, "wavefront width per device")
		queueCap = flag.Int("queue", 256, "admission queue capacity")
		shed     = flag.Float64("shed", 0.75, "queue occupancy fraction at which sub-high priority work is shed (>=1 disables)")
		cacheSz  = flag.Int("cache", 512, "result cache entries (-1 disables)")

		chaos     = flag.Bool("chaos", false, "arm a fault injector on every pool device")
		faultRate = flag.Float64("fault-rate", 1e-4, "per-event fault probability for -chaos")
		faultSeed = flag.Uint64("fault-seed", 1, "fault injector seed for -chaos")

		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (heap and CPU profiling of the serving hot path)")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on shutdown (0 waits forever)")

		journalDir   = flag.String("journal-dir", "", "write-ahead journal directory; accepted jobs and results survive crashes and are replayed on restart (empty = journaling off)")
		journalFsync = flag.String("journal-fsync", "batch", "journal durability mode: always (fsync per append), batch (group commit), none (OS-paced)")
		journalSeg   = flag.Int64("journal-segment-bytes", 0, "journal segment rotation size in bytes (0 = default 4MiB)")

		maxBody   = flag.Int64("max-body", serve.DefaultMaxBodyBytes, "maximum POST /color body bytes; oversized requests get 413 (negative disables the limit)")
		shardK    = flag.Int("shard-k", 0, "shard count for auto-sharded jobs (0 = one per pooled device, or per live worker on a coordinator; capped at 16)")
		shardAutV = flag.Int("shard-auto-vertices", 0, "auto-shard jobs at or above this many vertices (0 = default 8192, negative disables)")
		shardAutE = flag.Int("shard-auto-edges", 0, "auto-shard jobs at or above this many edges (0 = default 262144, negative disables)")
		noShard   = flag.Bool("no-shard", false, "disable sharding entirely: a server runs every job on one device, a coordinator routes every job whole")

		role      = flag.String("role", "server", "daemon role: server (standalone), coordinator (fleet front door, no devices), worker (server that joins a coordinator)")
		peers     = flag.String("peers", "", "coordinator: comma-separated static worker base URLs")
		joinURL   = flag.String("join", "", "worker: coordinator base URL to announce to")
		advertise = flag.String("advertise", "", "worker: base URL workers advertise to the coordinator (default http://<addr host>:<addr port>, with 127.0.0.1 for an empty or unspecified host)")
		heartbeat = flag.Duration("heartbeat", 500*time.Millisecond, "cluster heartbeat/probe interval")

		standbyURL    = flag.String("standby", "", "coordinator standby mode: primary coordinator base URL to watch; tails -journal-dir and takes over on -addr when the primary stops answering")
		standbyMisses = flag.Int("standby-misses", 3, "standby: consecutive missed primary probes before takeover")
		leaseOwner    = flag.String("lease-owner", "", "coordinator/standby: name recorded in the epoch lease file (default the hostname)")
	)
	flag.Parse()
	// Every role shards by the same policy: a server over its pooled
	// devices, a coordinator (or a promoted standby) over its live workers.
	policy := shard.Policy{Disabled: *noShard, K: *shardK, AutoVertices: *shardAutV, AutoEdges: *shardAutE}

	if *role == "worker" && *advertise == "" {
		adv, err := defaultAdvertise(*addr)
		if err != nil {
			log.Fatalf("gcolord: -addr: %v", err)
		}
		*advertise = adv
	}

	// Standby mode watches the primary's journal directory with a read-only
	// follower, so it must run before the append-mode journal open below.
	if *standbyURL != "" {
		if *journalDir == "" {
			log.Fatal("gcolord: -standby requires -journal-dir (the primary's journal directory)")
		}
		runStandby(*addr, *standbyURL, *journalDir, *journalFsync, *journalSeg,
			*standbyMisses, *leaseOwner, coordinatorConfig(*peers, *heartbeat, policy, *cacheSz), *drainTimeout)
		return
	}

	devCfg := serve.DeviceConfig{
		NumCUs:         *cus,
		WorkgroupSize:  *wgSize,
		WavefrontWidth: *wave,
	}
	if *chaos {
		devCfg.FaultRate = *faultRate
		devCfg.FaultSeed = *faultSeed
		log.Printf("chaos: fault injectors armed on all devices, rate %g, seed %d", *faultRate, *faultSeed)
	}

	// Open the write-ahead journal before the server exists: recovery state
	// (pending jobs to replay, completions to warm the cache from) feeds
	// straight into NewServer, so a crashed instance picks up where it died.
	var (
		jrnl *journal.Journal
		rec  *journal.Recovery
	)
	if *journalDir != "" {
		mode, err := journal.ParseFsyncMode(*journalFsync)
		if err != nil {
			log.Fatalf("gcolord: -journal-fsync: %v", err)
		}
		jrnl, rec, err = journal.Open(*journalDir, journal.Options{
			Fsync:        mode,
			SegmentBytes: *journalSeg,
		})
		if err != nil {
			log.Fatalf("gcolord: journal: %v", err)
		}
		log.Printf("journal: %s (fsync=%s): replayed %d records (%d pending, %d completions, %d torn tails, %d corrupt segments)",
			jrnl.Dir(), *journalFsync, rec.Stats.Records, len(rec.Pending), len(rec.Completions),
			rec.Stats.TornTails, rec.Stats.CorruptSegments)
	}

	switch *role {
	case "coordinator":
		// A journaled coordinator owns an epoch lease: each (re)start bumps
		// the epoch, so workers fence dispatches from any older incarnation
		// (a deposed primary that a standby already replaced).
		var epoch uint64
		if *journalDir != "" {
			lease, err := cluster.AcquireLease(*journalDir, ownerName(*leaseOwner))
			if err != nil {
				log.Fatalf("gcolord: lease: %v", err)
			}
			epoch = lease.Epoch
			log.Printf("gcolord: coordinator holds epoch %d (lease owner %s)", lease.Epoch, lease.Owner)
		}
		cfg := coordinatorConfig(*peers, *heartbeat, policy, *cacheSz)
		cfg.Epoch, cfg.Journal, cfg.Recovery = epoch, jrnl, rec
		runCoordinator(*addr, cfg, *drainTimeout)
		return
	case "server", "worker":
	default:
		log.Fatalf("gcolord: unknown -role %q (server | coordinator | worker)", *role)
	}

	srv := serve.NewServer(serve.Config{
		Devices:       *devices,
		Device:        devCfg,
		QueueCapacity: *queueCap,
		ShedFraction:  *shed,
		CacheEntries:  *cacheSz,
		Journal:       jrnl,
		Recovery:      rec,
		Shard:         policy,
	})

	// Every worker carries an epoch guard even standalone: it is inert until
	// a fenced coordinator's first dispatch ratchets it.
	guard := &serve.EpochGuard{}
	handler := serve.HandlerWith(srv, serve.HandlerConfig{MaxBodyBytes: *maxBody, Epoch: guard})
	if *pprofOn {
		// Mount the profiling endpoints next to the API so `go tool pprof
		// http://host/debug/pprof/heap` can watch the hot path live; off by
		// default since they expose internals.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Print("pprof: profiling endpoints enabled at /debug/pprof/")
	}
	hs := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		log.Printf("gcolord: serving on %s (%d devices, queue %d, cache %d)",
			*addr, *devices, *queueCap, *cacheSz)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("gcolord: %v", err)
		}
	}()

	// Worker role: announce this daemon to the coordinator until shutdown.
	// Push joins complement the coordinator's pull probes, so a worker is
	// routable even before the first probe round and re-registers itself
	// automatically after a coordinator restart.
	joinCtx, joinCancel := context.WithCancel(context.Background())
	defer joinCancel()
	if *role == "worker" {
		if *joinURL == "" {
			log.Fatal("gcolord: -role worker requires -join <coordinator-url>")
		}
		j := &cluster.Joiner{
			CoordinatorURL: *joinURL,
			AdvertiseAddr:  *advertise,
			Instance:       cluster.NewInstanceID(),
			Interval:       *heartbeat,
			Guard:          guard,
		}
		log.Printf("gcolord: worker joining %s as %s (instance %s)", *joinURL, *advertise, j.Instance)
		go func() { _ = j.Run(joinCtx) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("gcolord: %v received, draining (timeout %v)", s, *drainTimeout)
	case <-srv.DrainRequested():
		log.Printf("gcolord: drain requested via /drainz, draining (timeout %v)", *drainTimeout)
	}
	joinCancel()

	// Drain first: admission stops immediately, so in-flight HTTP handlers
	// either finish with their job or fail fast with a draining error —
	// then the HTTP shutdown below has nothing left to wait for.
	sum, drainErr := srv.Drain(*drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("gcolord: http shutdown: %v", err)
	}

	if jrnl != nil {
		// Close after drain: the last completions have been journaled, so a
		// restart warms from a snapshot instead of replaying live work.
		if err := jrnl.Close(); err != nil {
			log.Printf("gcolord: journal close: %v", err)
		}
	}

	st := srv.Stats()
	log.Printf("gcolord: drain summary: finished=%d failed=%d handed_off=%d timed_out=%v elapsed=%v",
		sum.Finished, sum.Failed, sum.HandedOff, sum.TimedOut, sum.Elapsed.Round(time.Millisecond))
	fmt.Printf("gcolord: served %d requests (%d completed, %d cached, %d coalesced, %d shed, %d failed, %d hedged, %d quarantines) in %v\n",
		st.Requests, st.Completed, st.CacheHits, st.Coalesced, st.Shed+st.QueueFull, st.Failed, st.Hedges, st.Quarantines, st.Uptime.Round(time.Millisecond))

	var dte *serve.DrainTimeoutError
	if errors.As(drainErr, &dte) {
		log.Printf("gcolord: drain timeout: %v", dte)
		os.Exit(7)
	} else if drainErr != nil {
		log.Printf("gcolord: drain: %v", drainErr)
		os.Exit(1)
	}
}

// coordinatorConfig is the cluster.Config of a coordinator, fresh or
// promoted from standby: the static peers split out of -peers, the
// heartbeat interval and shard policy, and a result cache (and with it the
// request memo) sized by -cache, as a server's is.
func coordinatorConfig(peers string, heartbeat time.Duration, policy shard.Policy, cacheEntries int) cluster.Config {
	var peerList []string
	if peers != "" {
		peerList = strings.Split(peers, ",")
	}
	return cluster.Config{Peers: peerList, HeartbeatInterval: heartbeat, Shard: policy, CacheEntries: cacheEntries}
}

// runCoordinator is the -role coordinator daemon body: no device pool,
// just the cluster front door with the same signal/drain lifecycle as the
// serving roles.
func runCoordinator(addr string, cfg cluster.Config, drainTimeout time.Duration) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("gcolord: %v", err)
	}
	coord := cluster.NewCoordinator(cfg)
	log.Printf("gcolord: coordinator serving on %s (%d static peers, heartbeat %v, epoch %d)",
		addr, len(cfg.Peers), cfg.HeartbeatInterval, cfg.Epoch)
	serveCoordinator(coord, cfg.Journal, ln, drainTimeout)
}

// serveCoordinator is the serve-and-drain body of a coordinator, fresh or
// promoted from standby: serve cluster.Handler on ln, wait for a signal or
// a /drainz request, drain under drainTimeout, shut HTTP down, close the
// coordinator and then its journal (when there is one), print the summary
// line, and exit 7 if jobs were still in flight.
func serveCoordinator(coord *cluster.Coordinator, jrnl *journal.Journal, ln net.Listener, drainTimeout time.Duration) {
	hs := &http.Server{Handler: cluster.Handler(coord)}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("gcolord: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("gcolord: coordinator: %v received, draining (timeout %v)", s, drainTimeout)
	case <-coord.DrainRequested():
		log.Printf("gcolord: coordinator: drain requested via /drainz, draining (timeout %v)", drainTimeout)
	}

	dctx := context.Background()
	if drainTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, drainTimeout)
		defer cancel()
	}
	left := coord.Drain(dctx)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("gcolord: coordinator: http shutdown: %v", err)
	}
	coord.Close()
	if jrnl != nil {
		if err := jrnl.Close(); err != nil {
			log.Printf("gcolord: coordinator: journal close: %v", err)
		}
	}

	st := coord.Stats()
	fmt.Printf("gcolord: coordinator served %d jobs (%d routed, %d scattered, %d failed, %d failovers, %d redispatches, %d cache hits) across %d workers\n",
		st.Jobs, st.Routed, st.Scattered, st.Failed, st.RouteFailovers, st.Redispatches, st.CacheHits, st.Workers)
	if left > 0 {
		log.Printf("gcolord: coordinator: drain timeout with %d jobs in flight", left)
		os.Exit(7)
	}
}

// runStandby is the warm-standby daemon body: tail the primary's journal,
// probe its healthz, and on sustained silence take over the front-door
// address at a fresh fencing epoch. A SIGTERM/SIGINT before takeover exits
// cleanly; after takeover the promoted coordinator drains like any other.
func runStandby(addr, primaryURL, dir, fsync string, segBytes int64,
	misses int, owner string, cfg cluster.Config, drainTimeout time.Duration) {
	mode, err := journal.ParseFsyncMode(fsync)
	if err != nil {
		log.Fatalf("gcolord: -journal-fsync: %v", err)
	}
	sb := cluster.NewStandby(cluster.StandbyConfig{
		JournalDir:        dir,
		PrimaryURL:        primaryURL,
		TakeoverAddr:      addr,
		HeartbeatInterval: cfg.HeartbeatInterval,
		MissThreshold:     misses,
		Owner:             ownerName(owner),
		Journal:           journal.Options{Fsync: mode, SegmentBytes: segBytes},
		Cluster:           cfg,
		Logf:              log.Printf,
	})

	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sig
		if ok {
			log.Printf("gcolord: standby: %v received before takeover, exiting", s)
			cancel()
		}
	}()

	log.Printf("gcolord: standby watching %s (journal %s, probe %v, %d misses to take over)",
		primaryURL, dir, cfg.HeartbeatInterval, misses)
	tk, err := sb.Run(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return
		}
		log.Fatalf("gcolord: standby: %v", err)
	}
	signal.Stop(sig)
	close(sig)
	log.Printf("gcolord: standby promoted: serving on %s at epoch %d (%d pending jobs replaying, takeover %dms)",
		addr, tk.Epoch, tk.Pending, tk.ReadyAt.Sub(tk.DetectedAt).Milliseconds())
	serveCoordinator(tk.Coordinator, tk.Journal, tk.Listener, drainTimeout)
}

// defaultAdvertise is a worker's base URL when -advertise is unset: the
// -addr host and port, with loopback standing in for an empty or
// unspecified host (":8431", "0.0.0.0:8431"), which is not dialable.
func defaultAdvertise(addr string) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	if port == "" {
		return "", fmt.Errorf("address %q has no port", addr)
	}
	if ip := net.ParseIP(host); host == "" || ip != nil && ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}

// ownerName resolves the lease-owner label: the flag if set, else the
// hostname, else the pid.
func ownerName(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return fmt.Sprintf("pid-%d", os.Getpid())
}
