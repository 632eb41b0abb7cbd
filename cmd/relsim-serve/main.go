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
	"relsim/internal/graph"
	"relsim/internal/replica"
	"relsim/internal/schema"
	"relsim/internal/server"
	"relsim/internal/store"
	"relsim/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "relsim-serve:", err)
		os.Exit(1)
	}
}

// options is relsim-serve's parsed command line: the server's Config,
// bound flag by flag, plus the settings that choose the graph, open the
// store and run the listener.
type options struct {
	server server.Config

	addr, dataset, in, schemaName string
	drain                         time.Duration
	dataDir                       string
	sync                          wal.SyncPolicy
	syncInterval                  time.Duration
	checkpointEvery               uint64
	segmentBytes                  int64
	logRetention                  int
	follow                        string
	pollInterval                  time.Duration
}

// parseFlags parses args into options. Every server flag reads its
// default from server.DefaultConfig except -timeout (30s), -slow-query
// (250ms) and the access log, which goes to stderr. -fsync and
// -log-format are validated here, so a bad value fails in every mode.
func parseFlags(args []string) (*options, error) {
	o := &options{server: server.DefaultConfig()}
	cfg := &o.server
	cfg.Timeout = 30 * time.Second
	cfg.SlowQuery = 250 * time.Millisecond
	cfg.AccessLog = os.Stderr

	fs := flag.NewFlagSet("relsim-serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.dataset, "dataset", "", fmt.Sprintf("built-in dataset to serve %v", datasets.Names()))
	fs.StringVar(&o.in, "in", "", "graph file to serve (JSON lines, see internal/graph/io.go)")
	fs.StringVar(&o.schemaName, "schema", "", "built-in schema for Algorithm-1 expansion (dblp|wsu|biomed); defaults to the dataset's own schema")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "default /batch worker-pool size")
	fs.IntVar(&cfg.CacheLimit, "cache-limit", cfg.CacheLimit, "max cached commuting matrices across versions, 0 = unbounded")
	fs.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "default /search and /batch evaluation deadline (0 = none; per-request override via ?timeout_ms=)")
	fs.DurationVar(&o.drain, "drain", 5*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	fs.IntVar(&cfg.Parallel.MinDim, "parallel-min-dim", cfg.Parallel.MinDim, "min matrix dimension for the parallel SpGEMM kernel")
	fs.IntVar(&cfg.Parallel.MinNNZ, "parallel-min-nnz", cfg.Parallel.MinNNZ, "min combined nnz for the parallel SpGEMM kernel")
	fs.BoolVar(&cfg.WorkloadPlanning, "workload-plan", cfg.WorkloadPlanning, "workload-aware /batch planning: canonicalize patterns, share sub-pattern matrices across the whole batch, materialize each distinct subexpression once")
	fs.BoolVar(&cfg.DeltaMaintenance, "delta-maintenance", cfg.DeltaMaintenance, "incremental cache maintenance: patch stale cached commuting matrices to the new version with sparse delta products on each commit, instead of evicting them")
	fs.Float64Var(&cfg.DeltaMaxDensity, "delta-max-density", cfg.DeltaMaxDensity, "delta density (nonzeros as a fraction of n²) above which maintenance of a pattern falls back to evict-and-recompute")
	fs.BoolVar(&cfg.Annotation, "annotate", cfg.Annotation, "semiring-annotated evaluation: the annotate=witness parameter on /search, /batch and /explain; off rejects annotated requests")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable data directory (write-ahead log + checkpoints); empty serves in-memory only")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always (no committed batch is ever lost), interval, never")
	fs.DurationVar(&o.syncInterval, "fsync-interval", wal.DefaultSyncInterval, "fsync cadence for -fsync interval")
	fs.Uint64Var(&o.checkpointEvery, "checkpoint-every", store.DefaultCheckpointEvery, "versions between graph checkpoints (0 = only the boot checkpoint)")
	fs.Int64Var(&o.segmentBytes, "wal-segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation bound in bytes (smaller segments let checkpoints trim history sooner)")
	fs.IntVar(&o.logRetention, "log-retention", store.DefaultLogCap, "in-memory replication feed retention in records (a durable store falls back to the WAL past it)")
	fs.StringVar(&o.follow, "follow", "", "leader base URL (e.g. http://leader:8080); run as a read replica of it")
	fs.DurationVar(&o.pollInterval, "poll-interval", replica.DefaultPollInterval, "follower: feed poll cadence while caught up")
	fs.Uint64Var(&cfg.MaxLag, "max-lag", cfg.MaxLag, "follower: /healthz turns 503 while replication lag exceeds this many versions (0 = unbounded)")
	fs.DurationVar(&cfg.MaxLagAge, "max-lag-age", cfg.MaxLagAge, "follower: /healthz turns 503 while behind for longer than this (0 = unbounded; catches an unreachable leader, whose version lag freezes)")
	fs.IntVar(&cfg.Admission.MaxInFlight, "max-inflight", cfg.Admission.MaxInFlight, "admission control: max concurrently admitted evaluation/mutation requests, shedding the excess with 503 before any snapshot is pinned (0 = unlimited)")
	fs.IntVar(&cfg.Admission.QueueDepth, "queue-depth", cfg.Admission.QueueDepth, "admission control: bounded wait queue above -max-inflight; a full queue sheds immediately (0 = no queue)")
	fs.Float64Var(&cfg.Admission.Rate, "rate", cfg.Admission.Rate, "per-client token-bucket rate limit in requests/second, keyed by X-Relsim-Api-Key or remote address; drained buckets answer 429 + Retry-After (0 = unlimited)")
	fs.IntVar(&cfg.Admission.Burst, "burst", cfg.Admission.Burst, "per-client burst capacity above -rate (0 = a sensible default)")
	fs.IntVar(&cfg.Admission.MaxCost, "max-cost", cfg.Admission.MaxCost, "per-request cost ceiling in estimated matrix products; costlier requests answer 422 before materialization (0 = unlimited)")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body-bytes", cfg.MaxBodyBytes, "request-body size bound; larger bodies answer 413 (0 = unbounded)")
	fs.DurationVar(&cfg.MaxTimeout, "max-timeout", cfg.MaxTimeout, "ceiling for the per-request ?timeout_ms= override; larger values are clamped (0 = no ceiling)")
	fs.DurationVar(&cfg.SlowQuery, "slow-query", cfg.SlowQuery, "slow-query log threshold: requests slower than this are captured into GET /debug/queries (0 = disabled)")
	fs.BoolVar(&cfg.Pprof, "pprof", cfg.Pprof, "mount net/http/pprof under /debug/pprof/ (off by default: profiles expose process memory)")
	logFormat := fs.String("log-format", "text", "access-log format, one line per request to stderr: text or json")
	fs.Parse(args)

	var err error
	if o.sync, err = wal.ParseSyncPolicy(*fsync); err != nil {
		return nil, err
	}
	switch *logFormat {
	case "text":
	case "json":
		cfg.AccessLogJSON = true
	default:
		return nil, fmt.Errorf("invalid -log-format %q (want text or json)", *logFormat)
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.follow != "" {
		return runFollower(o)
	}

	g, sc, err := load(o.dataset, o.in, o.schemaName)
	if err != nil {
		return err
	}
	st, err := openStore(o, g)
	if err != nil {
		return err
	}
	defer st.Close()
	cfg := o.server
	srv := server.New(st, sc, func(c *server.Config) { *c = cfg })

	stats := st.Stats()
	log.Printf("serving %d nodes, %d edges, labels %v on %s (MVCC snapshot isolation, timeout %v, workload planning %v, durable %v, slow-query %v, pprof %v, max-inflight %d, rate %g, max-cost %d)",
		stats.Nodes, stats.Edges, stats.Labels, o.addr, cfg.Timeout, cfg.WorkloadPlanning, st.Durable(), cfg.SlowQuery, cfg.Pprof, cfg.Admission.MaxInFlight, cfg.Admission.Rate, cfg.Admission.MaxCost)

	return serve(srv, st, o.addr, o.drain, nil, nil)
}

// openStore builds the store both modes serve from: in-memory over
// seed without -data-dir, else the durable store in that directory,
// where seed (nil for a follower) only initializes a fresh directory.
// Recovery happens here, before the listener exists: no request can
// observe a half-replayed store.
func openStore(o *options, seed *graph.Graph) (*store.Store, error) {
	if o.dataDir == "" {
		st := store.New(seed)
		st.SetLogRetention(o.logRetention)
		return st, nil
	}
	st, err := store.Open(o.dataDir,
		store.WithSeed(seed),
		store.WithSync(o.sync),
		store.WithSyncInterval(o.syncInterval),
		store.WithCheckpointEvery(o.checkpointEvery),
		store.WithSegmentBytes(o.segmentBytes),
		store.WithLogRetention(o.logRetention),
	)
	if err != nil {
		return nil, err
	}
	ds := st.DurabilityStats()
	log.Printf("durable store %s: recovered version %d (checkpoint %d + %d replayed records, %d torn records truncated), fsync %s, checkpoint every %d",
		o.dataDir, ds.Recovery.RecoveredVersion, ds.Recovery.CheckpointVersion,
		ds.Recovery.ReplayedRecords, ds.WAL.TornTruncated, ds.SyncPolicy, ds.CheckpointEvery)
	return st, nil
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

// runFollower boots a read replica: build the (optionally durable)
// store, bootstrap + catch up from the leader synchronously — the
// listener only opens on a converged replica, mirroring how a durable
// leader recovers before listening — then serve reads while the tailer
// keeps following.
func runFollower(o *options) error {
	if o.dataset != "" || o.in != "" {
		return fmt.Errorf("-follow is mutually exclusive with -dataset/-in: a follower's graph comes from the leader's checkpoint")
	}
	leaderURL, err := replica.LeaderURL(o.follow)
	if err != nil {
		return err
	}
	sc, err := lookupSchema(o.schemaName)
	if err != nil {
		return err
	}
	st, err := openStore(o, nil)
	if err != nil {
		return err
	}
	defer st.Close()

	tailCtx, stopTail := context.WithCancel(context.Background())
	defer stopTail()
	f := replica.New(st, leaderURL, replica.Options{
		PollInterval: o.pollInterval,
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

	cfg := o.server
	cfg.Follower = f
	srv := server.New(st, sc, func(c *server.Config) { *c = cfg })

	stats := st.Stats()
	log.Printf("follower of %s serving %d nodes, %d edges at version %d on %s (poll %v, max lag %d, durable %v)",
		leaderURL, stats.Nodes, stats.Edges, stats.Version, o.addr, o.pollInterval, cfg.MaxLag, st.Durable())

	return serve(srv, st, o.addr, o.drain, func() {
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
	override, err := lookupSchema(schemaName)
	if err != nil {
		return nil, nil, err
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

// lookupSchema resolves a -schema name; the empty name means none.
func lookupSchema(name string) (*schema.Schema, error) {
	if name == "" {
		return nil, nil
	}
	if sc := datasets.SchemaByName(name); sc != nil {
		return sc, nil
	}
	return nil, fmt.Errorf("unknown schema %q (have dblp|wsu|biomed)", name)
}
