// Package server exposes the RelSim query engine as a concurrent
// HTTP/JSON service over an MVCC store.Store:
//
//	POST /search       one similarity query (structurally robust pipeline)
//	POST /batch        many queries, amortizing materialization across a worker pool
//	POST /explain      instance-level provenance: why are u and v similar under p?
//	POST /graph/edges  mutations: add nodes, add edges, remove edges
//	GET  /healthz      liveness + role (leader/follower) + follower readiness
//	GET  /stats        store version, pinned-version spread, cache and request counters
//	GET  /log          replication catch-up feed (in-memory log, WAL-backed past it)
//	GET  /checkpoint   follower bootstrap transfer (newest checkpoint + its version)
//
// With Config.Follower set the server is a read replica: the read API serves
// from the locally replicated store, mutations answer 403 naming the
// leader, and /healthz + /stats expose replication lag.
//
// Every request pins exactly one immutable snapshot for its lifetime:
// queries evaluate against that frozen version with zero lock cost and
// are never blocked by writers; /batch shares a single pinned snapshot
// and a single snapshot-bound evaluator across its whole worker pool,
// so the amortized materialization pass stays consistent even while
// writes land concurrently. Mutations commit copy-on-write versions
// through the store and age the shared commuting-matrix cache: entries
// are keyed by (version, pattern), so a write can never corrupt a
// pinned reader's results — the label-based hook merely carries
// untouched patterns' matrices forward to the new version and evicts
// the rest proactively.
//
// /search and /batch run under a context deadline (Config.Timeout default,
// ?timeout_ms= per-request override); cancellation is checked between
// matrix products, so a timed-out query stops burning CPU. A timed-out
// /search answers 504; a timed-out /batch still answers 200, delivering
// the queries that beat the deadline and per-query errors for the rest.
//
// Every setting is a field of Config, documented there once;
// DefaultConfig holds every default, New starts from it, and
// cmd/relsim-serve binds its flags onto the same struct.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"relsim/internal/admission"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/replica"
	"relsim/internal/rre"
	"relsim/internal/schema"
	"relsim/internal/sparse"
	"relsim/internal/store"
	"relsim/internal/telemetry"
)

// DefaultWorkers is the /batch worker-pool size when the request does
// not choose one.
const DefaultWorkers = 4

// DefaultExpandCacheLimit bounds the Algorithm-1 expansion memo.
// Expansions are keyed by request pattern string, so adversarial
// traffic with ever-distinct patterns would otherwise grow the memo
// without bound.
const DefaultExpandCacheLimit = 1024

// DefaultLogFeedPage bounds one GET /log page when the request does not
// choose ?max=.
const DefaultLogFeedPage = 512

// maxLogFeedPage is the hard ceiling on ?max=.
const maxLogFeedPage = 10000

// Server is the HTTP handler. Construct with New; the zero value is not
// usable.
type Server struct {
	cfg    Config
	st     *store.Store
	cache  *eval.Cache
	schema *schema.Schema
	mux    *http.ServeMux
	start  time.Time

	// Traffic hardening (see admission.go): New compiles cfg.Admission
	// into adm (nil when every mechanism is disabled — the zero-overhead
	// path); admWait is the queued-wait histogram handle (nil without
	// instrumentation — a no-op sink).
	adm     *admission.Controller
	admWait *telemetry.Metric

	// expand memoizes Algorithm-1 expansions by input pattern string.
	// The schema and generation options are fixed for the server's
	// lifetime, so entries never go stale — unlike commuting matrices,
	// expansions do not depend on the graph's edges. The memo is
	// LRU-bounded at expandLimit (DefaultExpandCacheLimit; tests lower
	// it): pattern strings come straight off the wire, so an unbounded
	// memo is a memory leak under adversarial traffic.
	expandMu        sync.Mutex
	expand          map[string]*expandEntry
	expandLimit     int
	expandTick      uint64
	expandHits      uint64
	expandMisses    uint64
	expandEvictions uint64

	// Observability. reg is the server's telemetry registry (nil when
	// cfg.Instrumentation is off); obs holds the HTTP-layer metric
	// handles the middleware feeds. Request/error/timeout counting is
	// status-based in the middleware — see observed in obs.go — so no
	// handler error path can skip it.
	reg      *telemetry.Registry
	obs      *serverObs
	slow     *slowLog
	accessMu sync.Mutex

	// Workload-planning counters: batches planned, subexpression
	// materializations avoided by DAG sharing, products those
	// materializations would have cost (both static per-plan estimates
	// versus per-query isolation), patterns excluded from planning
	// because canonicalization is not count-exact, and products actually
	// performed by every evaluator bound to this server (the mul-hook
	// count).
	nPlanned, nDeduped, nProductsSaved, nUnplannable, nProducts atomic.Uint64

	// Semiring-annotated serving (see annotate.go): the counters split
	// annotated request traffic, annotated-kernel products (the mul hook
	// passes nil operands for non-integer products, which is how they are
	// told apart), and /explain's projection-vs-legacy answers.
	nAnnotated, nAnnotatedProducts  atomic.Uint64
	nExplainProjected, nExplainWarm atomic.Uint64
	nExplainLegacy                  atomic.Uint64

	// Incremental cache maintenance (delta SpGEMM): when
	// cfg.DeltaMaintenance is on, the commit hook patches stale cached
	// matrices to the new version instead of evicting them. The counters
	// accumulate Cache.Maintain results across commits; deltaNanos is the
	// total wall time spent maintaining, and deltaDur the latency
	// histogram handle (nil without instrumentation — a no-op sink).
	deltaDur *telemetry.Metric

	nDeltaCommits, nDeltaRoots, nDeltaMaintained atomic.Uint64
	nDeltaFallbacks, nDeltaProducts              atomic.Uint64
	deltaNanos                                   atomic.Int64

	// testHookEval, when set (tests only), runs at the start of every
	// query scoring pass with the request about to be scored — the
	// lever tests use to inject controlled slowness or panics into the
	// serving path.
	testHookEval func(req *SearchRequest)
}

// Config is the complete set of serving settings. Each field is one
// knob, documented once here; DefaultConfig is the only place a default
// value is written. relsim-serve binds its flags straight onto a
// Config and the relsim facade re-exports it as ServerConfig.
type Config struct {
	// Workers is the default /batch worker-pool size, used when the
	// request does not choose one; <= 0 means DefaultWorkers.
	Workers int
	// CacheLimit bounds the shared commuting-matrix cache to that many
	// matrices (LRU eviction across all versions); <= 0 leaves it
	// unbounded.
	CacheLimit int
	// Timeout is the default deadline for /search and /batch
	// evaluation. Requests may override it with ?timeout_ms=; <= 0
	// disables the default.
	Timeout time.Duration
	// Parallel is the gate deciding when commuting-matrix products use
	// the parallel SpGEMM kernel. Lower it on experiment-scale graphs so
	// /batch materialization parallelizes.
	Parallel sparse.Thresholds
	// WorkloadPlanning turns on workload-aware /batch planning: the
	// distinct pattern set of a batch is canonicalized, folded into a
	// shared sub-pattern DAG and materialized exactly once per distinct
	// subexpression across the worker pool, with cache entries keyed by
	// the canonical rendering so semantically interchangeable patterns
	// share matrices. Off restores the sequential per-pattern
	// materialization pass with raw string keys — the
	// ablation/differential baseline.
	WorkloadPlanning bool
	// DeltaMaintenance turns on incremental maintenance of the shared
	// commuting-matrix cache: the commit hook summarizes each write
	// batch as a signed sparse delta per touched label and patches stale
	// cached matrices to the new version with delta-shaped products,
	// instead of evicting them to be recomputed from scratch on the next
	// read. Off restores the pure evict-on-write lifecycle — the
	// ablation baseline for the delta benchmark. Either way results are
	// identical: maintained matrices are byte-for-byte the ones a
	// recompute would produce.
	DeltaMaintenance bool
	// DeltaMaxDensity is the density threshold at which incremental
	// maintenance of a pattern gives up and falls back to eviction: if
	// the delta at any expression node exceeds f·n² nonzeros, the
	// distributive expansion costs as much as recomputation. <= 0 means
	// eval.DefaultMaxDeltaDensity.
	DeltaMaxDensity float64
	// Annotation turns on semiring-annotated evaluation: the
	// annotate=witness parameter on /search, /batch and /explain. Off
	// rejects annotated requests with code "annotation_disabled" — the
	// operator's lever when the annotated twin matrices must not compete
	// for cache space.
	Annotation bool
	// Durability exposes the durability surface: the GET /log
	// replication feed, the GET /checkpoint bootstrap transfer, and the
	// durability section of /stats. Turn it off when the replication
	// surface must not be reachable through this listener. The feed
	// works for in-memory stores too (it serves the bounded update log,
	// and /checkpoint serializes the live snapshot); with a durable
	// store (store.Open) /log is additionally backed by the WAL, so a
	// follower can catch up past the in-memory retention window.
	Durability bool
	// Instrumentation turns on the telemetry layer as a whole: the
	// /metrics registry, the per-request middleware (request ids,
	// Server-Timing, per-endpoint counters and latency histograms), and
	// the store/WAL/replica instrumentation. Off is the measured
	// baseline for the instrumentation-overhead benchmark; an
	// uninstrumented server reports zero request counters in /stats.
	Instrumentation bool
	// SlowQuery enables the slow-query log: requests slower than it are
	// captured — pattern, plan stats, cache behavior, phase timings —
	// into a bounded ring served at GET /debug/queries. <= 0 disables
	// capture. Requires Instrumentation.
	SlowQuery time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ (profiles expose
	// memory contents, so the surface is opt-in).
	Pprof bool
	// AccessLog, when set, receives one structured line per request —
	// JSON when AccessLogJSON, a stable text form otherwise. Each line
	// carries the request id, endpoint, status, duration, and per-phase
	// breakdown. Writes are serialized; the writer need not be safe for
	// concurrent use. Requires Instrumentation.
	AccessLog     io.Writer
	AccessLogJSON bool
	// Follower, when set, puts the server in follower (read-replica)
	// mode: mutations are rejected with 403 naming the leader, /healthz
	// reports role "follower" and turns unready (503) while replication
	// lag exceeds MaxLag versions or MaxLagAge of wall time (each 0 =
	// unbounded), and /stats grows a replication section. The two bounds
	// cover different failures: the version bound catches a follower
	// that cannot keep up with a live leader, while the time bound
	// catches an unreachable leader — lag-in-versions freezes at the
	// last successful poll, but lag-in-seconds keeps growing, so a
	// partitioned replica drops out of rotation instead of serving
	// arbitrarily stale reads as "ok". The read API — /search, /batch,
	// /explain, /stats, and the replication surface for chained
	// followers — serves from the local store as usual.
	Follower  Replication
	MaxLag    uint64
	MaxLagAge time.Duration
	// MaxBodyBytes bounds request bodies; larger bodies answer 413 at
	// decode time instead of being read fully into memory before any
	// validation. <= 0 removes the bound.
	MaxBodyBytes int64
	// MaxTimeout caps the per-request ?timeout_ms= override: larger
	// values are clamped to it, so a client can shorten the server
	// deadline but never extend it past the operator's ceiling. <= 0
	// removes the cap.
	MaxTimeout time.Duration
	// Admission configures traffic hardening (see admission.go):
	// concurrency-gated admission with a bounded wait queue, per-client
	// token-bucket rate limiting with per-tenant overrides, and the
	// per-request cost ceiling. The zero value disables every mechanism.
	Admission admission.Config
}

// DefaultConfig returns the server's defaults: telemetry, workload
// planning, delta maintenance, annotation and the durability surface
// on; admission, slow-query capture, pprof and the access log off; no
// evaluation deadline and an unbounded matrix cache.
func DefaultConfig() Config {
	return Config{
		Workers:          DefaultWorkers,
		Parallel:         sparse.DefaultThresholds(),
		WorkloadPlanning: true,
		DeltaMaintenance: true,
		DeltaMaxDensity:  eval.DefaultMaxDeltaDensity,
		Annotation:       true,
		Durability:       true,
		Instrumentation:  true,
		MaxBodyBytes:     4 << 20, // fits thousands of /batch queries
		MaxTimeout:       5 * time.Minute,
	}
}

// Option adjusts the Config New starts from (DefaultConfig). To pass a
// whole Config, use func(c *Config) { *c = cfg }.
type Option func(*Config)

// WithTimeout, WithSlowQuery and WithAccessLog exist only so the
// benchmark module (relbench), which builds its servers with them,
// compiles; everything else sets Config fields directly, and the next
// change to the benchmark removes them.

// WithTimeout sets Config.Timeout.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

// WithSlowQuery sets Config.SlowQuery.
func WithSlowQuery(d time.Duration) Option { return func(c *Config) { c.SlowQuery = d } }

// WithAccessLog sets Config.AccessLog and Config.AccessLogJSON.
func WithAccessLog(w io.Writer, jsonFormat bool) Option {
	return func(c *Config) { c.AccessLog, c.AccessLogJSON = w, jsonFormat }
}

// Replication is the view the server needs of a replication tailer —
// satisfied by *replica.Follower. The indirection keeps the server
// testable with a fake and the tailer free of HTTP-handler concerns.
type Replication interface {
	// Status reports current replication lag and sync counters.
	Status() replica.Status
	// Leader returns the leader's base URL (the 403 body points
	// mutation traffic at it).
	Leader() string
}

// expandEntry is one memoized Algorithm-1 expansion with its LRU tick.
type expandEntry struct {
	ps   []*rre.Pattern
	used uint64
}

// New builds a server over st from DefaultConfig with opts applied.
// sc may be nil; the schema then has no constraints and simple patterns
// are scored without expansion (the label set is taken from the graph
// at construction time). The server registers itself as the store's
// update observer so committed writes age the versioned cache (carry
// untouched patterns forward, evict the rest).
func New(st *store.Store, sc *schema.Schema, opts ...Option) *Server {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.DeltaMaxDensity <= 0 {
		cfg.DeltaMaxDensity = eval.DefaultMaxDeltaDensity
	}
	if sc == nil {
		snap, _ := st.Snapshot()
		sc = schema.New(snap.Labels())
	}
	s := &Server{
		cfg:         cfg,
		st:          st,
		cache:       eval.NewCache(),
		schema:      sc,
		mux:         http.NewServeMux(),
		start:       time.Now(),
		expand:      make(map[string]*expandEntry),
		expandLimit: DefaultExpandCacheLimit,
	}
	s.cache.SetLimit(cfg.CacheLimit)
	s.adm = admission.New(cfg.Admission)
	st.OnUpdate(s.ageCache)
	s.mux.HandleFunc("POST /search", s.handleSearch)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /explain", s.handleExplain)
	s.mux.HandleFunc("POST /graph/edges", s.handleMutate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	if s.cfg.Durability {
		s.mux.HandleFunc("GET /log", s.handleLog)
		s.mux.HandleFunc("GET /checkpoint", s.handleCheckpoint)
	}
	if s.cfg.Instrumentation {
		s.reg = telemetry.NewRegistry()
		s.obs = newServerObs(s.reg)
		s.instrumentEngine(s.reg)
		s.instrumentSemiring(s.reg)
		s.instrumentAdmission(s.reg)
		st.Instrument(s.reg)
		// A replication tailer that can describe itself (the concrete
		// *replica.Follower does) joins the registry; test fakes that
		// cannot simply stay out of /metrics.
		if in, ok := s.cfg.Follower.(interface{ Instrument(*telemetry.Registry) }); ok {
			in.Instrument(s.reg)
		}
		s.mux.Handle("GET /metrics", s.reg.Handler())
		if s.cfg.SlowQuery > 0 {
			s.slow = newSlowLog()
		}
	}
	s.mux.HandleFunc("GET /debug/queries", s.handleSlowQueries)
	if s.cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler. With instrumentation on, every
// request flows through the observability middleware; either way it
// then passes the hardened path (panic recovery, admission, body
// bound — see protected in admission.go) before reaching the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		s.protected(w, r)
		return
	}
	s.observed(w, r)
}

// Registry returns the server's telemetry registry (nil when
// instrumentation is off) — the cmd layer and tests scrape or extend
// it.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Cache returns the server's shared versioned commuting-matrix cache
// (tests and stats probing).
func (s *Server) Cache() *eval.Cache { return s.cache }

// Store returns the server's store.
func (s *Server) Store() *store.Store { return s.st }

// evaluator binds a snapshot-scoped evaluator over the shared cache.
// Under workload planning every evaluator keys the cache canonically,
// so /search and /explain hit the matrices /batch plans materialize
// (and vice versa), and all evaluators feed the server's product
// counter through the mul hook.
func (s *Server) evaluator(snap *graph.Snapshot, version uint64) *eval.Evaluator {
	ev := eval.NewVersioned(snap, version, s.cache)
	ev.SetParallelThresholds(s.cfg.Parallel)
	ev.SetCanonicalKeys(s.cfg.WorkloadPlanning)
	// Annotated (non-integer) products fire the hook with nil operands —
	// the discriminator the semiring counters rely on.
	ev.SetMulHook(func(a, _ *sparse.Matrix) {
		s.nProducts.Add(1)
		if a == nil {
			s.nAnnotatedProducts.Add(1)
		}
	})
	return ev
}

// ageCache translates a committed update batch into versioned-cache
// maintenance. Correctness never requires invalidation under MVCC (all
// entries are keyed by immutable versions); this is the proactive pass
// that keeps the cache hot and bounded. With delta maintenance on, the
// batch is first summarized as a signed sparse delta per touched label
// and every stale cached pattern is patched to the new version by
// delta-shaped products (Cache.Maintain) — so the next read of a hot
// pattern hits instead of recomputing. Advance then carries untouched
// patterns forward and evicts whatever maintenance did not (or could
// not) patch, and EvictBelow drops entries below the oldest
// still-pinned version. It runs after publication, still on the
// writer's goroutine, so batches age the cache in commit order —
// which also means the live snapshot here is exactly the batch's
// post-commit version.
func (s *Server) ageCache(updates []store.Update) {
	d := store.SummarizeUpdates(updates)
	ls := d.Labels()
	nodesChanged := d.NodesAdded > 0
	oldestPinned := s.st.OldestPinned()
	if s.cfg.DeltaMaintenance && (len(ls) > 0 || nodesChanged) {
		if snap, ver := s.st.Snapshot(); ver == d.To {
			start := time.Now()
			n := snap.NumNodes()
			res := s.cache.Maintain(snap, eval.CommitDelta{
				From:   d.From,
				To:     d.To,
				OldN:   n - d.NodesAdded,
				NewN:   n,
				Labels: d.LabelDeltas(n),
			}, eval.MaintainOptions{MaxDensity: s.cfg.DeltaMaxDensity, Gate: s.cfg.Parallel})
			elapsed := time.Since(start)
			s.nDeltaCommits.Add(1)
			s.nDeltaRoots.Add(uint64(res.Roots))
			s.nDeltaMaintained.Add(uint64(res.Maintained))
			s.nDeltaFallbacks.Add(uint64(res.Fallbacks))
			s.nDeltaProducts.Add(uint64(res.Products))
			s.deltaNanos.Add(elapsed.Nanoseconds())
			s.deltaDur.Observe(elapsed.Seconds())
		}
	}
	// Readers still pinned at the pre-write version keep their entries
	// (Advance copies instead of moving); EvictBelow reaps them — and
	// any older version's leftovers — once no pin needs them. Advance
	// keeps the entries Maintain pre-inserted at the new version.
	s.cache.Advance(d.From, d.To, ls, nodesChanged, oldestPinned <= d.From)
	s.cache.EvictBelow(oldestPinned)
}

// requestContext derives the evaluation context: the server default
// timeout, overridden by a positive ?timeout_ms= query parameter.
// Zero, negative, non-numeric and integer-overflowing overrides are a
// 400 (they used to be partially silent); values past the server's
// MaxTimeout ceiling are clamped — a huge override used to overflow the
// millisecond multiply into a negative Duration and silently disable
// the deadline altogether.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.Timeout
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid timeout_ms %q (want a positive integer of milliseconds)", raw)
		}
		if int64(ms) > int64(1<<62)/int64(time.Millisecond) {
			// Would overflow the Duration multiply; any sane ceiling is
			// lower, and with no ceiling the largest representable
			// deadline is morally "unbounded" anyway.
			d = time.Duration(1 << 62)
		} else {
			d = time.Duration(ms) * time.Millisecond
		}
		if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// errorResponse is the uniform error body. Code, when set, is a stable
// machine-readable discriminator for errors a client must tell apart
// (a follower distinguishing "since beyond the live version" from a
// malformed request); Leader points mutation traffic at the leader on
// follower-mode 403s.
type errorResponse struct {
	Error  string `json:"error"`
	Code   string `json:"code,omitempty"`
	Leader string `json:"leader,omitempty"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform error body. Error accounting is NOT
// done here: the middleware counts every >= 400 response from the
// status it observes, so handlers that produce errors through other
// paths (writeJSON with an error status, the mux's own 404/405) are
// counted identically.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// HealthzResponse is the GET /healthz body. Role is "leader" (the
// default: a writable store) or "follower"; a follower additionally
// reports its replication status, and the endpoint doubles as the
// readiness probe — 503 with status "syncing" before the first
// successful sync and "lagging" while lag exceeds the follower's
// max-lag bound, so a load balancer stops routing reads to a replica
// that has fallen too far behind.
type HealthzResponse struct {
	Status      string          `json:"status"`
	Role        string          `json:"role"`
	Version     uint64          `json:"version"`
	Replication *replica.Status `json:"replication,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok", Role: "leader", Version: s.st.Version()}
	status := http.StatusOK
	if s.cfg.Follower != nil {
		rs := s.cfg.Follower.Status()
		resp.Role = "follower"
		resp.Replication = &rs
		switch {
		case !rs.SyncedOnce:
			resp.Status = "syncing"
			status = http.StatusServiceUnavailable
		case s.cfg.MaxLag > 0 && rs.LagVersions > s.cfg.MaxLag,
			s.cfg.MaxLagAge > 0 && rs.LagSeconds > s.cfg.MaxLagAge.Seconds():
			resp.Status = "lagging"
			status = http.StatusServiceUnavailable
		}
	}
	s.writeJSON(w, status, resp)
}

// WorkloadStats is the /stats view of /batch workload planning:
// batches planned, subexpression materializations deduplicated by the
// shared DAG, the matrix products those duplicates would have cost, and
// the products actually performed server-wide.
type WorkloadStats struct {
	Enabled              bool   `json:"enabled"`
	PlannedBatches       uint64 `json:"planned_batches"`
	SubpatternsDeduped   uint64 `json:"subpatterns_deduped"`
	ProductsSaved        uint64 `json:"products_saved"`
	UnplannablePatterns  uint64 `json:"unplannable_patterns"`
	ProductsMaterialized uint64 `json:"products_materialized"`
}

// DeltaStats is the /stats view of incremental cache maintenance:
// commits that ran maintenance, stale patterns eligible (roots),
// patterns patched forward vs. left to evict-and-recompute, sparse
// products spent on deltas, and total maintenance wall time.
type DeltaStats struct {
	Enabled            bool    `json:"enabled"`
	MaxDensity         float64 `json:"max_density"`
	Commits            uint64  `json:"commits"`
	Roots              uint64  `json:"roots"`
	Maintained         uint64  `json:"maintained"`
	Fallbacks          uint64  `json:"fallbacks"`
	Products           uint64  `json:"products"`
	MaintenanceSeconds float64 `json:"maintenance_seconds"`
}

// ExpandMemoStats is the /stats view of the bounded Algorithm-1
// expansion memo.
type ExpandMemoStats struct {
	Size      int    `json:"size"`
	Limit     int    `json:"limit"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	Store store.Stats     `json:"store"`
	Pins  store.PinStats  `json:"pins"`
	Cache eval.CacheStats `json:"cache"`
	// CacheVersions maps graph version → cached matrix count: how much
	// of the cache serves the live version vs. still-pinned history.
	CacheVersions map[uint64]int        `json:"cache_versions"`
	Workload      WorkloadStats         `json:"workload"`
	Delta         DeltaStats            `json:"delta"`
	Semiring      SemiringStats         `json:"semiring"`
	Admission     AdmissionStats        `json:"admission"`
	Durability    store.DurabilityStats `json:"durability"`
	ExpandMemo    ExpandMemoStats       `json:"expand_memo"`
	// Replication reports follower lag and sync counters; nil on a
	// leader.
	Replication   *replica.Status   `json:"replication,omitempty"`
	Requests      map[string]uint64 `json:"requests"`
	UptimeSeconds float64           `json:"uptime_seconds"`
}

// Stats assembles the /stats body (also used by the CLI's shutdown
// flush).
func (s *Server) Stats() StatsResponse {
	s.expandMu.Lock()
	memo := ExpandMemoStats{
		Size:      len(s.expand),
		Limit:     s.expandLimit,
		Hits:      s.expandHits,
		Misses:    s.expandMisses,
		Evictions: s.expandEvictions,
	}
	s.expandMu.Unlock()
	// The durability section (including the on-disk directory path) is
	// part of the surface Config.Durability off withholds.
	var dur store.DurabilityStats
	if s.cfg.Durability {
		dur = s.st.DurabilityStats()
	}
	var repl *replica.Status
	if s.cfg.Follower != nil {
		rs := s.cfg.Follower.Status()
		repl = &rs
	}
	return StatsResponse{
		Store:         s.st.Stats(),
		Pins:          s.st.PinStats(),
		Cache:         s.cache.Stats(),
		CacheVersions: s.cache.VersionOccupancy(),
		Workload: WorkloadStats{
			Enabled:              s.cfg.WorkloadPlanning,
			PlannedBatches:       s.nPlanned.Load(),
			SubpatternsDeduped:   s.nDeduped.Load(),
			ProductsSaved:        s.nProductsSaved.Load(),
			UnplannablePatterns:  s.nUnplannable.Load(),
			ProductsMaterialized: s.nProducts.Load(),
		},
		Delta:         s.deltaStats(),
		Semiring:      s.semiringStats(),
		Admission:     s.adm.Stats(),
		Durability:    dur,
		ExpandMemo:    memo,
		Replication:   repl,
		Requests:      s.requestCounts(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
}

// deltaStats snapshots the incremental-maintenance counters.
func (s *Server) deltaStats() DeltaStats {
	return DeltaStats{
		Enabled:            s.cfg.DeltaMaintenance,
		MaxDensity:         s.cfg.DeltaMaxDensity,
		Commits:            s.nDeltaCommits.Load(),
		Roots:              s.nDeltaRoots.Load(),
		Maintained:         s.nDeltaMaintained.Load(),
		Fallbacks:          s.nDeltaFallbacks.Load(),
		Products:           s.nDeltaProducts.Load(),
		MaintenanceSeconds: float64(s.deltaNanos.Load()) / float64(time.Second),
	}
}

// requestCounts assembles the Requests section of /stats from the
// telemetry registry's own counters — the single source of truth, so
// /stats and /metrics cannot disagree. The JSON shape predates the
// registry and is kept: per-endpoint counts for the four request
// surfaces plus totals for errors and timeouts. "errors" folds in
// /batch's per-query errors and "timeouts" its soft timeouts, matching
// the pre-registry accounting. All zeros when instrumentation is off.
func (s *Server) requestCounts() map[string]uint64 {
	req := map[string]uint64{
		"search": 0, "batch": 0, "explain": 0,
		"mutations": 0, "errors": 0, "timeouts": 0,
	}
	o := s.obs
	if o == nil {
		return req
	}
	for _, ep := range []string{"search", "batch", "explain", "mutations"} {
		req[ep] = uint64(o.requests[ep].Value())
	}
	var errs, touts float64
	for _, m := range o.errors {
		errs += m.Value()
	}
	for _, m := range o.timeouts {
		touts += m.Value()
	}
	req["errors"] = uint64(errs + o.queryErrors.Value())
	req["timeouts"] = uint64(touts)
	return req
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// nodeResolver is the lookup surface resolveNode needs; satisfied by
// graph views and by write transactions (read-your-writes).
type nodeResolver interface {
	NodeByName(name string) (graph.Node, bool)
	Has(id graph.NodeID) bool
}

// resolveNode resolves a node reference: first as a display name, then
// as a decimal node id.
func resolveNode(g nodeResolver, ref string) (graph.NodeID, bool) {
	if n, ok := g.NodeByName(ref); ok {
		return n.ID, true
	}
	id, err := strconv.Atoi(ref)
	if err != nil || id < 0 || !g.Has(graph.NodeID(id)) {
		return 0, false
	}
	return graph.NodeID(id), true
}
