// Command relsim-serve runs the RelSim query service: it loads a
// built-in dataset or a graph file and serves similarity queries,
// instance-level explanations and live graph mutations over HTTP/JSON,
// with MVCC snapshot isolation — every request evaluates one pinned
// immutable graph version, so long queries never block writers and vice
// versa.
//
// Usage:
//
//	relsim-serve -dataset dblp-small [-addr :8080] [-timeout 30s]
//	relsim-serve -in g.jsonl -schema dblp [-workers 8] [-cache-limit 512]
//	relsim-serve -dataset dblp-small -data-dir /var/lib/relsim [-fsync always]
//	relsim-serve -follow http://leader:8080 [-data-dir /var/lib/replica] [-max-lag 1024]
//
// With -data-dir the store is durable: every committed mutation batch
// is appended to a write-ahead log before publication, the graph is
// checkpointed every -checkpoint-every versions, and on boot the
// service recovers checkpoint + WAL tail — resuming the version counter
// exactly — before it starts listening. The -dataset/-in graph seeds a
// fresh directory only; recovered state always wins.
//
// With -follow the process is a read replica: it bootstraps from the
// leader's GET /checkpoint, tails GET /log, serves the full read API at
// the replicated versions, rejects mutations with 403 naming the
// leader, and re-bootstraps automatically when the leader signals a
// feed gap. A follower with -data-dir persists what it applies and
// resumes tailing from its recovered version after a restart.
//
// Endpoints: POST /search, POST /batch, POST /explain,
// POST /graph/edges, GET /healthz, GET /stats, GET /log (the
// replication catch-up feed), GET /checkpoint (the bootstrap
// transfer). See internal/server for the request and response shapes,
// and the top-level README for curl examples.
//
// On SIGINT/SIGTERM the server stops tailing (followers), drains
// in-flight requests for -drain, flushes a final /stats snapshot to the
// log, and closes the store (final WAL fsync) before exiting; a
// mutation racing the drain gets a clean 503.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/replica"
	"relsim/internal/schema"
	"relsim/internal/server"
	"relsim/internal/sparse"
	"relsim/internal/store"
	"relsim/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "relsim-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("relsim-serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataset := fs.String("dataset", "", fmt.Sprintf("built-in dataset to serve %v", datasets.Names()))
	in := fs.String("in", "", "graph file to serve (JSON lines, see internal/graph/io.go)")
	schemaName := fs.String("schema", "", "built-in schema for Algorithm-1 expansion (dblp|wsu|biomed); defaults to the dataset's own schema")
	workers := fs.Int("workers", server.DefaultWorkers, "default /batch worker-pool size")
	cacheLimit := fs.Int("cache-limit", 0, "max cached commuting matrices across versions, 0 = unbounded")
	timeout := fs.Duration("timeout", 30*time.Second, "default /search and /batch evaluation deadline (0 = none; per-request override via ?timeout_ms=)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	defGate := sparse.DefaultThresholds()
	minDim := fs.Int("parallel-min-dim", defGate.MinDim, "min matrix dimension for the parallel SpGEMM kernel")
	minNNZ := fs.Int("parallel-min-nnz", defGate.MinNNZ, "min combined nnz for the parallel SpGEMM kernel")
	workloadPlan := fs.Bool("workload-plan", true, "workload-aware /batch planning: canonicalize patterns, share sub-pattern matrices across the whole batch, materialize each distinct subexpression once")
	deltaMaint := fs.Bool("delta-maintenance", true, "incremental cache maintenance: patch stale cached commuting matrices to the new version with sparse delta products on each commit, instead of evicting them")
	deltaDensity := fs.Float64("delta-max-density", eval.DefaultMaxDeltaDensity, "delta density (nonzeros as a fraction of n²) above which maintenance of a pattern falls back to evict-and-recompute")
	annotate := fs.Bool("annotate", true, "semiring-annotated evaluation: the annotate=witness parameter on /search, /batch and /explain; off rejects annotated requests")
	dataDir := fs.String("data-dir", "", "durable data directory (write-ahead log + checkpoints); empty serves in-memory only")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always (no committed batch is ever lost), interval, never")
	fsyncInterval := fs.Duration("fsync-interval", wal.DefaultSyncInterval, "fsync cadence for -fsync interval")
	checkpointEvery := fs.Uint64("checkpoint-every", store.DefaultCheckpointEvery, "versions between graph checkpoints (0 = only the boot checkpoint)")
	segmentBytes := fs.Int64("wal-segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation bound in bytes (smaller segments let checkpoints trim history sooner)")
	logRetention := fs.Int("log-retention", store.DefaultLogCap, "in-memory replication feed retention in records (a durable store falls back to the WAL past it)")
	follow := fs.String("follow", "", "leader base URL (e.g. http://leader:8080); run as a read replica of it")
	pollInterval := fs.Duration("poll-interval", replica.DefaultPollInterval, "follower: feed poll cadence while caught up")
	maxLag := fs.Uint64("max-lag", 0, "follower: /healthz turns 503 while replication lag exceeds this many versions (0 = unbounded)")
	maxLagAge := fs.Duration("max-lag-age", 0, "follower: /healthz turns 503 while behind for longer than this (0 = unbounded; catches an unreachable leader, whose version lag freezes)")
	maxInflight := fs.Int("max-inflight", 0, "admission control: max concurrently admitted evaluation/mutation requests, shedding the excess with 503 before any snapshot is pinned (0 = unlimited)")
	queueDepth := fs.Int("queue-depth", 0, "admission control: bounded wait queue above -max-inflight; a full queue sheds immediately (0 = no queue)")
	rate := fs.Float64("rate", 0, "per-client token-bucket rate limit in requests/second, keyed by X-Relsim-Api-Key or remote address; drained buckets answer 429 + Retry-After (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-client burst capacity above -rate (0 = a sensible default)")
	maxCost := fs.Int("max-cost", 0, "per-request cost ceiling in estimated matrix products; costlier requests answer 422 before materialization (0 = unlimited)")
	maxBodyBytes := fs.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "request-body size bound; larger bodies answer 413 (0 = unbounded)")
	maxTimeout := fs.Duration("max-timeout", server.DefaultMaxTimeout, "ceiling for the per-request ?timeout_ms= override; larger values are clamped (0 = no ceiling)")
	slowQuery := fs.Duration("slow-query", 250*time.Millisecond, "slow-query log threshold: requests slower than this are captured into GET /debug/queries (0 = disabled)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiles expose process memory)")
	logFormat := fs.String("log-format", "text", "access-log format, one line per request to stderr: text or json")
	fs.Parse(args)

	accessJSON, err := parseLogFormat(*logFormat)
	if err != nil {
		return err
	}

	adm := admissionOptions(*maxInflight, *queueDepth, *rate, *burst, *maxCost, *maxBodyBytes, *maxTimeout)

	if *follow != "" {
		return runFollower(followerConfig{
			addr: *addr, leader: *follow, schemaName: *schemaName,
			workers: *workers, cacheLimit: *cacheLimit, timeout: *timeout, drain: *drain,
			gate: sparse.Thresholds{MinDim: *minDim, MinNNZ: *minNNZ}, plan: *workloadPlan,
			deltaMaint: *deltaMaint, deltaDensity: *deltaDensity, annotate: *annotate,
			dataDir: *dataDir, fsync: *fsync, fsyncInterval: *fsyncInterval,
			checkpointEvery: *checkpointEvery, segmentBytes: *segmentBytes, logRetention: *logRetention,
			pollInterval: *pollInterval, maxLag: *maxLag, maxLagAge: *maxLagAge,
			dataset: *dataset, in: *in,
			slowQuery: *slowQuery, pprof: *pprofOn, accessJSON: accessJSON,
			admission: adm,
		})
	}

	g, sc, err := load(*dataset, *in, *schemaName)
	if err != nil {
		return err
	}
	var st *store.Store
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}
		// Recovery happens here, before the listener exists: no request
		// can observe a half-replayed store.
		st, err = store.Open(*dataDir,
			store.WithSeed(g),
			store.WithSync(policy),
			store.WithSyncInterval(*fsyncInterval),
			store.WithCheckpointEvery(*checkpointEvery),
			store.WithSegmentBytes(*segmentBytes),
			store.WithLogRetention(*logRetention),
		)
		if err != nil {
			return err
		}
		ds := st.DurabilityStats()
		log.Printf("durable store %s: recovered version %d (checkpoint %d + %d replayed records, %d torn records truncated), fsync %s, checkpoint every %d",
			*dataDir, ds.Recovery.RecoveredVersion, ds.Recovery.CheckpointVersion,
			ds.Recovery.ReplayedRecords, ds.WAL.TornTruncated, ds.SyncPolicy, ds.CheckpointEvery)
	} else {
		st = store.New(g)
		st.SetLogRetention(*logRetention)
	}
	defer st.Close()
	srvOpts := []server.Option{
		server.WithWorkers(*workers),
		server.WithCacheLimit(*cacheLimit),
		server.WithTimeout(*timeout),
		server.WithParallelThresholds(sparse.Thresholds{MinDim: *minDim, MinNNZ: *minNNZ}),
		server.WithWorkloadPlanning(*workloadPlan),
		server.WithDeltaMaintenance(*deltaMaint),
		server.WithDeltaMaxDensity(*deltaDensity),
		server.WithAnnotation(*annotate),
		server.WithSlowQuery(*slowQuery),
		server.WithPprof(*pprofOn),
		server.WithAccessLog(os.Stderr, accessJSON),
	}
	srv := server.New(st, sc, append(srvOpts, adm...)...)

	stats := st.Stats()
	log.Printf("serving %d nodes, %d edges, labels %v on %s (MVCC snapshot isolation, timeout %v, workload planning %v, durable %v, slow-query %v, pprof %v, max-inflight %d, rate %g, max-cost %d)",
		stats.Nodes, stats.Edges, stats.Labels, *addr, *timeout, *workloadPlan, st.Durable(), *slowQuery, *pprofOn, *maxInflight, *rate, *maxCost)

	return serve(srv, st, *addr, *drain, nil, nil)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains and —
// when stopTailer is set (follower mode) — stops the replication loop
// first so no page lands mid-teardown. The caller's deferred st.Close
// runs after serve returns; mutations racing the drain hit the
// closed-store 503, never a torn WAL append. A nil sigc registers a
// fresh signal channel; follower mode passes its own, registered
// before the bootstrap began, so no delivery window ever reverts to
// the default die-without-drain disposition.
func serve(srv *server.Server, st *store.Store, addr string, drain time.Duration, stopTailer func(), sigc <-chan os.Signal) error {
	hs := &http.Server{Addr: addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	if sigc == nil {
		c := make(chan os.Signal, 1)
		signal.Notify(c, os.Interrupt, syscall.SIGTERM)
		sigc = c
	}
	select {
	case err := <-errc:
		if stopTailer != nil {
			stopTailer()
		}
		return err
	case sig := <-sigc:
		log.Printf("received %v, draining for up to %v", sig, drain)
		if stopTailer != nil {
			stopTailer()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr := hs.Shutdown(ctx)
		if shutdownErr != nil {
			// Drain deadline exceeded: force-close lingering connections.
			// An in-flight mutation now races store.Close — which refuses
			// it cleanly (503) instead of panicking on a closed WAL.
			log.Printf("drain incomplete (%v), closing", shutdownErr)
			hs.Close()
		}
		flushStats(srv)
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return shutdownErr
	}
}

// followerConfig carries the follower-mode flags.
type followerConfig struct {
	addr, leader, schemaName string
	workers, cacheLimit      int
	timeout, drain           time.Duration
	gate                     sparse.Thresholds
	plan                     bool
	deltaMaint               bool
	deltaDensity             float64
	annotate                 bool
	dataDir, fsync           string
	fsyncInterval            time.Duration
	checkpointEvery          uint64
	segmentBytes             int64
	logRetention             int
	pollInterval             time.Duration
	maxLag                   uint64
	maxLagAge                time.Duration
	dataset, in              string
	slowQuery                time.Duration
	pprof                    bool
	accessJSON               bool
	admission                []server.Option
}

// admissionOptions folds the traffic-hardening flags into server
// options. Followers get the identical envelope: a replica is just as
// overloadable as its leader, and the exempt replication surface
// (/log, /checkpoint) is never gated on either.
func admissionOptions(maxInflight, queueDepth int, rate float64, burst, maxCost int, maxBodyBytes int64, maxTimeout time.Duration) []server.Option {
	return []server.Option{
		server.WithAdmissionLimits(maxInflight, queueDepth),
		server.WithAdmissionRate(rate, burst),
		server.WithAdmissionMaxCost(maxCost),
		server.WithMaxBodyBytes(maxBodyBytes),
		server.WithMaxTimeout(maxTimeout),
	}
}

// parseLogFormat validates -log-format and reports whether the access
// log should be JSON.
func parseLogFormat(v string) (bool, error) {
	switch v {
	case "text":
		return false, nil
	case "json":
		return true, nil
	}
	return false, fmt.Errorf("invalid -log-format %q (want text or json)", v)
}

// runFollower boots a read replica: build the (optionally durable)
// store, bootstrap + catch up from the leader synchronously — the
// listener only opens on a converged replica, mirroring how a durable
// leader recovers before listening — then serve reads while the tailer
// keeps following.
func runFollower(cfg followerConfig) error {
	if cfg.dataset != "" || cfg.in != "" {
		return fmt.Errorf("-follow is mutually exclusive with -dataset/-in: a follower's graph comes from the leader's checkpoint")
	}
	leaderURL, err := replica.LeaderURL(cfg.leader)
	if err != nil {
		return err
	}
	var sc *schema.Schema
	if cfg.schemaName != "" {
		if sc = datasets.SchemaByName(cfg.schemaName); sc == nil {
			return fmt.Errorf("unknown schema %q (have dblp|wsu|biomed)", cfg.schemaName)
		}
	}
	var st *store.Store
	if cfg.dataDir != "" {
		policy, err := wal.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		st, err = store.Open(cfg.dataDir,
			store.WithSync(policy),
			store.WithSyncInterval(cfg.fsyncInterval),
			store.WithCheckpointEvery(cfg.checkpointEvery),
			store.WithSegmentBytes(cfg.segmentBytes),
			store.WithLogRetention(cfg.logRetention),
		)
		if err != nil {
			return err
		}
		ds := st.DurabilityStats()
		log.Printf("durable replica store %s: recovered version %d", cfg.dataDir, ds.Recovery.RecoveredVersion)
	} else {
		st = store.New(nil)
		st.SetLogRetention(cfg.logRetention)
	}
	defer st.Close()

	tailCtx, stopTail := context.WithCancel(context.Background())
	defer stopTail()
	f := replica.New(st, leaderURL, replica.Options{
		PollInterval: cfg.pollInterval,
		Logf:         log.Printf,
	})
	// One signal channel for the follower's whole lifetime, registered
	// before the bootstrap begins: a SIGINT/SIGTERM at any point cancels
	// the tailer and is relayed onward for serve's graceful drain — no
	// window where the default die-without-drain disposition applies,
	// and no signal consumed without acting on it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	relay := make(chan os.Signal, 1)
	go func() {
		for sig := range sigc {
			stopTail()
			select {
			case relay <- sig:
			default:
			}
		}
	}()
	err = f.Start(tailCtx)
	// A signal that landed during the initial sync cancelled tailCtx,
	// and Start may still have returned nil if the last page had just
	// finished. Honoring the shutdown here matters: proceeding would
	// open the listener with a dead tailer (Run exits immediately on
	// the cancelled context) and the replica would serve, frozen,
	// forever.
	if tailCtx.Err() != nil {
		log.Printf("shutdown requested during initial sync, exiting")
		return nil
	}
	if err != nil {
		return err
	}

	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		f.Run(tailCtx)
	}()

	srvOpts := []server.Option{
		server.WithWorkers(cfg.workers),
		server.WithCacheLimit(cfg.cacheLimit),
		server.WithTimeout(cfg.timeout),
		server.WithParallelThresholds(cfg.gate),
		server.WithWorkloadPlanning(cfg.plan),
		server.WithDeltaMaintenance(cfg.deltaMaint),
		server.WithDeltaMaxDensity(cfg.deltaDensity),
		server.WithAnnotation(cfg.annotate),
		server.WithFollower(f, cfg.maxLag, cfg.maxLagAge),
		server.WithSlowQuery(cfg.slowQuery),
		server.WithPprof(cfg.pprof),
		server.WithAccessLog(os.Stderr, cfg.accessJSON),
	}
	srv := server.New(st, sc, append(srvOpts, cfg.admission...)...)

	stats := st.Stats()
	log.Printf("follower of %s serving %d nodes, %d edges at version %d on %s (poll %v, max lag %d, durable %v)",
		leaderURL, stats.Nodes, stats.Edges, stats.Version, cfg.addr, cfg.pollInterval, cfg.maxLag, st.Durable())

	return serve(srv, st, cfg.addr, cfg.drain, func() {
		stopTail()
		<-tailDone
	}, relay)
}

// flushStats logs the final /stats snapshot so post-mortems see the
// closing version, pin spread and cache counters.
func flushStats(srv *server.Server) {
	buf, err := json.Marshal(srv.Stats())
	if err != nil {
		log.Printf("final stats: marshal: %v", err)
		return
	}
	log.Printf("final stats: %s", buf)
}

// load builds the graph and schema from the flags: either a built-in
// dataset (which brings its own schema unless -schema overrides it) or
// a graph file plus an optional built-in schema.
func load(dataset, in, schemaName string) (*graph.Graph, *schema.Schema, error) {
	var override *schema.Schema
	if schemaName != "" {
		if override = datasets.SchemaByName(schemaName); override == nil {
			return nil, nil, fmt.Errorf("unknown schema %q (have dblp|wsu|biomed)", schemaName)
		}
	}
	switch {
	case dataset != "" && in != "":
		return nil, nil, fmt.Errorf("-dataset and -in are mutually exclusive")
	case dataset != "":
		ds, err := datasets.ByName(dataset)
		if err != nil {
			return nil, nil, err
		}
		if override != nil {
			return ds.Graph, override, nil
		}
		return ds.Graph, ds.Schema, nil
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := graph.Read(f)
		if err != nil {
			return nil, nil, err
		}
		return g, override, nil
	}
	return nil, nil, fmt.Errorf("one of -dataset or -in is required")
}
