// Package relsim is a structurally robust similarity search library for
// labeled graph databases, implementing RelSim from "Structural
// Generalizability: The Case of Similarity Search" (SIGMOD 2021).
//
// Graph similarity algorithms such as SimRank, random walk with restart
// and PathSim return different answers on databases that represent the
// same information under different structures. RelSim fixes this: with
// relationship patterns written in the rich-relationship expression
// (RRE) language — regular path queries extended with a nested operator
// [p] and a skip operator ⌈⌈p⌋⌋ (spelled <p> here) — Equation-1 scores
// are provably invariant under every invertible schema transformation.
//
// The typical flow:
//
//	g := relsim.NewGraph()
//	// ... add nodes and edges ...
//	eng := relsim.NewEngine(g, mySchema)
//	rank, err := eng.Search("field.field-", queryNode, relsim.WithCandidates(areas))
//
// Search expands simple patterns against the schema's tgd constraints
// (Algorithm 1 of the paper) and aggregates the scores, so users write
// plain meta-paths and still get structurally robust answers. The
// lower-level entry points (RelSim, PathSim, HeteSim, RWR, SimRank) are
// exposed for benchmarking and comparisons, as is the Theorem 2 pattern
// rewriting across schema mappings (RewritePattern).
package relsim

import (
	"fmt"
	"io"
	"time"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/mapping"
	"relsim/internal/pattern"
	"relsim/internal/replica"
	"relsim/internal/rre"
	"relsim/internal/schema"
	"relsim/internal/server"
	"relsim/internal/sim"
	"relsim/internal/sparse"
	"relsim/internal/store"
	"relsim/internal/wal"
)

// Re-exported core types. The facade aliases the internal packages so a
// downstream user only imports "relsim".
type (
	// Graph is a labeled directed graph database (paper §2).
	Graph = graph.Graph
	// NodeID identifies a node; ids are dense 0..n-1.
	NodeID = graph.NodeID
	// Node is a stored node with optional name and type tag.
	Node = graph.Node
	// Edge is a labeled edge.
	Edge = graph.Edge
	// Pattern is an RRE relationship pattern (paper §4.2).
	Pattern = rre.Pattern
	// Schema is a label set plus tgd constraints (paper §2).
	Schema = schema.Schema
	// Constraint is a tuple-generating dependency over the schema.
	Constraint = schema.Constraint
	// Atom is one (from, path, to) atom of a constraint premise.
	Atom = schema.Atom
	// Var is a constraint/mapping variable.
	Var = schema.Var
	// Transformation is a schema mapping (paper §3).
	Transformation = mapping.Transformation
	// Rule is one mapping rule.
	Rule = mapping.Rule
	// ConclusionAtom is a concluded edge of a mapping rule.
	ConclusionAtom = mapping.ConclusionAtom
	// Ranking is a ranked similarity answer list.
	Ranking = sim.Ranking
	// Snapshot is an immutable graph version (MVCC read view).
	Snapshot = graph.Snapshot
	// GraphView is the read interface shared by *Graph and *Snapshot.
	GraphView = graph.View
	// Store is an MVCC graph store: lock-free snapshot reads,
	// copy-on-write write transactions.
	Store = store.Store
	// StorePin is a pinned snapshot: one reader's registered view of one
	// version (see Store.Pin).
	StorePin = store.Pin
	// StoreUpdate is one record of a store's update log.
	StoreUpdate = store.Update
	// StoreOpenOption configures OpenStore.
	StoreOpenOption = store.OpenOption
	// StoreFeed is one page of a store's replication feed (GET /log).
	StoreFeed = store.Feed
	// DurabilityStats is the monitoring view of a durable store's WAL
	// and checkpoint layer.
	DurabilityStats = store.DurabilityStats
	// SyncPolicy selects when WAL appends reach stable storage.
	SyncPolicy = wal.SyncPolicy
	// Follower tails a leader's replication feed into a local Store —
	// checkpoint bootstrap, contiguous /log pages, automatic
	// re-bootstrap on gap (see NewFollower).
	Follower = replica.Follower
	// FollowerOptions configures a Follower (poll cadence, page size,
	// backoff cap, HTTP client).
	FollowerOptions = replica.Options
	// ReplicationStatus is a point-in-time view of a follower's lag and
	// sync counters.
	ReplicationStatus = replica.Status
	// Server is the HTTP/JSON query service over a Store.
	Server = server.Server
	// ServerOption configures NewServer.
	ServerOption = server.Option
	// CacheStats is a snapshot of an engine's commuting-matrix cache.
	CacheStats = eval.CacheStats
	// ParallelThresholds gates the parallel SpGEMM kernel.
	ParallelThresholds = sparse.Thresholds
)

// NewGraph returns an empty graph database.
func NewGraph() *Graph { return graph.New() }

// NewStore wraps g in an MVCC store: Store.Snapshot returns the current
// immutable version with one atomic load (readers are never blocked),
// and write transactions build the next version copy-on-write, publish
// it atomically, bump the version per mutation and feed the update log.
// Use it with NewServer for live serving.
func NewStore(g *Graph) *Store { return store.New(g) }

// The WAL fsync policies (see OpenStore / WithStoreSync).
const (
	// SyncAlways fsyncs every committed batch before publication: a
	// version a reader can observe survives any crash.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a background cadence: a crash loses at
	// most the last interval's commits (each lost whole, never torn).
	SyncInterval = wal.SyncEvery
	// SyncNever leaves flushing to the OS.
	SyncNever = wal.SyncNever
)

// OpenStore opens (creating if needed) a durable MVCC store in dir:
// every committed batch is appended to a checksummed write-ahead log
// before it is published, the graph is checkpointed periodically, and
// recovery on boot replays checkpoint + WAL tail — truncating a torn
// tail record instead of failing — resuming the version counter exactly
// where the crash left it.
func OpenStore(dir string, opts ...StoreOpenOption) (*Store, error) {
	return store.Open(dir, opts...)
}

// WithStoreSeed supplies the initial graph for a fresh data directory;
// a directory that already holds state ignores it (recovered state
// wins).
func WithStoreSeed(g *Graph) StoreOpenOption { return store.WithSeed(g) }

// WithStoreSync sets the WAL fsync policy (default SyncAlways).
func WithStoreSync(p SyncPolicy) StoreOpenOption { return store.WithSync(p) }

// WithStoreSyncInterval sets the SyncInterval cadence.
func WithStoreSyncInterval(d time.Duration) StoreOpenOption { return store.WithSyncInterval(d) }

// WithStoreCheckpointEvery checkpoints the graph every n committed
// versions; 0 disables periodic checkpoints.
func WithStoreCheckpointEvery(n uint64) StoreOpenOption { return store.WithCheckpointEvery(n) }

// WithStoreSegmentBytes sets the WAL segment rotation bound; smaller
// segments let checkpoints trim history at finer granularity.
func WithStoreSegmentBytes(n int64) StoreOpenOption { return store.WithSegmentBytes(n) }

// WithStoreLogRetention bounds the in-memory replication feed to n
// records; a durable store serves older pages from the WAL.
func WithStoreLogRetention(n int) StoreOpenOption { return store.WithLogRetention(n) }

// NewFollower builds a replication tailer that follows the leader
// relsim-serve instance at leaderURL into st: Start performs the
// initial checkpoint bootstrap + catch-up, Run keeps tailing, and a
// feed gap triggers an automatic re-bootstrap. Pair it with
// WithServerFollower to serve the replica read-only.
func NewFollower(st *Store, leaderURL string, opt FollowerOptions) *Follower {
	return replica.New(st, leaderURL, opt)
}

// WithServerFollower puts the server in read-replica mode backed by f:
// mutations answer 403 naming the leader, /healthz reports the
// follower role and turns 503 while lag exceeds maxLag versions or
// maxLagAge of wall time (each 0 = unbounded; the time bound is what
// catches an unreachable leader, whose version lag freezes at the last
// successful poll), and /stats grows a replication section.
func WithServerFollower(f *Follower, maxLag uint64, maxLagAge time.Duration) ServerOption {
	return server.WithFollower(f, maxLag, maxLagAge)
}

// NewServer builds the HTTP/JSON query service over st. The schema may
// be nil (no Algorithm-1 expansion constraints). Mount the result on any
// http.Server; see cmd/relsim-serve for a ready-made binary.
func NewServer(st *Store, s *Schema, opts ...ServerOption) *Server {
	return server.New(st, s, opts...)
}

// WithServerWorkers sets the default /batch worker-pool size.
func WithServerWorkers(n int) ServerOption { return server.WithWorkers(n) }

// WithServerCacheLimit bounds the server's versioned commuting-matrix
// cache to n matrices with LRU eviction across all graph versions.
func WithServerCacheLimit(n int) ServerOption { return server.WithCacheLimit(n) }

// WithServerTimeout sets the default /search and /batch evaluation
// deadline (override per request with ?timeout_ms=).
func WithServerTimeout(d time.Duration) ServerOption { return server.WithTimeout(d) }

// WithServerParallelThresholds sets the parallel SpGEMM gate used by
// the server's evaluators.
func WithServerParallelThresholds(t ParallelThresholds) ServerOption {
	return server.WithParallelThresholds(t)
}

// WithServerWorkloadPlanning toggles workload-aware /batch planning
// (default on): canonicalize the batch's patterns, fold them into a
// shared sub-pattern DAG and materialize every distinct subexpression
// exactly once across the worker pool.
func WithServerWorkloadPlanning(on bool) ServerOption {
	return server.WithWorkloadPlanning(on)
}

// WithServerDeltaMaintenance toggles incremental maintenance of the
// server's commuting-matrix cache (default on): each committed write
// batch is summarized as a signed sparse delta per touched label, and
// stale cached matrices are patched to the new version with
// delta-shaped products instead of being evicted and recomputed on the
// next read. Results are identical either way; off is the
// evict-on-write ablation baseline.
func WithServerDeltaMaintenance(on bool) ServerOption {
	return server.WithDeltaMaintenance(on)
}

// WithServerDeltaMaxDensity sets the delta-density threshold (nonzeros
// as a fraction of n²) above which maintenance of a pattern falls back
// to evict-and-recompute. f <= 0 restores the default.
func WithServerDeltaMaxDensity(f float64) ServerOption {
	return server.WithDeltaMaxDensity(f)
}

// WithServerAnnotation toggles semiring-annotated evaluation (default
// on): the annotate=witness parameter on /search, /batch and /explain,
// which attaches instance counts and a bounded witness-derivation
// prefix to each answer and turns a warm /explain into a pure
// projection of the cached annotation. Off rejects annotated requests.
func WithServerAnnotation(on bool) ServerOption {
	return server.WithAnnotation(on)
}

// WithServerDurability toggles the server's durability surface (default
// on): the GET /log replication catch-up feed and the durability
// section of /stats. Turn it off when the update feed must not be
// reachable through a public listener.
func WithServerDurability(on bool) ServerOption {
	return server.WithDurability(on)
}

// WithServerExpandCacheLimit bounds the Algorithm-1 expansion memo to n
// entries with LRU eviction.
func WithServerExpandCacheLimit(n int) ServerOption {
	return server.WithExpandCacheLimit(n)
}

// WithServerInstrumentation toggles the telemetry layer (default on):
// the GET /metrics Prometheus exposition, per-request ids and
// Server-Timing headers, and the per-endpoint counters and latency
// histograms behind /stats.
func WithServerInstrumentation(on bool) ServerOption {
	return server.WithInstrumentation(on)
}

// WithServerSlowQuery captures requests slower than d — pattern, plan
// stats, cache behavior, phase timings — into a bounded ring served at
// GET /debug/queries. d <= 0 disables capture (the default).
func WithServerSlowQuery(d time.Duration) ServerOption {
	return server.WithSlowQuery(d)
}

// WithServerPprof mounts net/http/pprof under /debug/pprof/ (default
// off: profiles expose process memory, so the surface is opt-in).
func WithServerPprof(on bool) ServerOption { return server.WithPprof(on) }

// WithServerAccessLog emits one structured line per request to w (JSON
// when jsonFormat, text otherwise): request id, endpoint, status,
// duration, and per-phase breakdown.
func WithServerAccessLog(w io.Writer, jsonFormat bool) ServerOption {
	return server.WithAccessLog(w, jsonFormat)
}

// WithServerAdmissionLimits enables concurrency-gated admission: at
// most maxInFlight evaluation/mutation requests run concurrently, up to
// queueDepth more wait in a bounded queue, and the rest are shed with
// 503 + Retry-After before any snapshot is pinned or body decoded.
// maxInFlight <= 0 disables the gate.
func WithServerAdmissionLimits(maxInFlight, queueDepth int) ServerOption {
	return server.WithAdmissionLimits(maxInFlight, queueDepth)
}

// WithServerAdmissionQueueWait bounds how long one queued request waits
// for admission capacity before it is shed.
func WithServerAdmissionQueueWait(d time.Duration) ServerOption {
	return server.WithAdmissionQueueWait(d)
}

// WithServerAdmissionRate enables per-client token-bucket rate
// limiting — rate sustained requests/second with burst capacity above
// it, keyed by the X-Relsim-Api-Key header (falling back to the remote
// address). Drained buckets answer 429 + Retry-After. rate <= 0
// disables the default bucket.
func WithServerAdmissionRate(rate float64, burst int) ServerOption {
	return server.WithAdmissionRate(rate, burst)
}

// WithServerAdmissionTenantRate overrides the token bucket for one
// client key (rate <= 0 makes that tenant unlimited). May be repeated.
func WithServerAdmissionTenantRate(key string, rate float64, burst int) ServerOption {
	return server.WithAdmissionTenantRate(key, rate, burst)
}

// WithServerAdmissionMaxCost sets the per-request cost ceiling in
// estimated matrix products (the workload plan's schedule length):
// requests whose pattern set would cost more answer 422 before any
// materialization starts. n <= 0 disables the ceiling.
func WithServerAdmissionMaxCost(n int) ServerOption {
	return server.WithAdmissionMaxCost(n)
}

// WithServerMaxBodyBytes bounds request bodies; larger bodies answer
// 413 at decode time. n <= 0 removes the bound.
func WithServerMaxBodyBytes(n int64) ServerOption {
	return server.WithMaxBodyBytes(n)
}

// WithServerMaxTimeout caps the per-request ?timeout_ms= override:
// clients can shorten the server deadline but never extend it past the
// operator's ceiling. d <= 0 removes the cap.
func WithServerMaxTimeout(d time.Duration) ServerOption {
	return server.WithMaxTimeout(d)
}

// CanonicalPattern returns the canonical form of p: associativity
// flattened, reversal pushed onto labels, disjunction branches sorted
// and deduplicated. Exactly-canonicalizable patterns (see
// rre.CanonicalExact; everything except disjunction branches that
// become equal only under canonicalization) with equal canonical
// renderings have identical commuting matrices over every graph.
func CanonicalPattern(p *Pattern) *Pattern { return rre.Canonical(p) }

// NewSchema builds a schema from labels and constraints.
func NewSchema(labels []string, constraints ...Constraint) *Schema {
	return schema.New(labels, constraints...)
}

// ParsePattern parses an RRE pattern in the ASCII syntax: labels
// ("p-in"), '.' concatenation, '+' disjunction, postfix '-' reversal,
// postfix '*' Kleene star, '[p]' nesting, '<p>' skip, '()' epsilon.
func ParsePattern(s string) (*Pattern, error) { return rre.Parse(s) }

// MustParsePattern is ParsePattern panicking on error.
func MustParsePattern(s string) *Pattern { return rre.MustParse(s) }

// TGD builds a tgd constraint: premise atoms → (from, label, to).
func TGD(name string, premise []Atom, from Var, conclusionLabel string, to Var) Constraint {
	return schema.TGD(name, premise, from, conclusionLabel, to)
}

// At builds a premise atom (from, path, to); path uses the RRE syntax.
func At(from Var, path string, to Var) Atom { return schema.At(from, path, to) }

// RewritePattern maps a pattern over a source schema to the
// count-equivalent pattern over a transformed schema, given the inverse
// transformation (Theorem 2 / Corollary 1).
func RewritePattern(p *Pattern, inverse Transformation) (*Pattern, error) {
	return mapping.RewritePattern(p, inverse)
}

// VerifyInverse checks constructively that inv undoes t on instance g.
func VerifyInverse(g *Graph, t, inv Transformation) bool {
	return mapping.VerifyInverse(g, t, inv)
}

// Engine answers similarity queries over one graph database, caching
// commuting matrices across queries. It is safe for concurrent use.
type Engine struct {
	g      *Graph
	schema *Schema
	ev     *eval.Evaluator
	genOpt pattern.Options
}

// NewEngine builds an engine for g. The schema may be nil when no
// constraints are known; Search then behaves like plain RelSim.
func NewEngine(g *Graph, s *Schema) *Engine {
	if s == nil {
		s = schema.New(g.Labels())
	}
	return &Engine{g: g, schema: s, ev: eval.New(g), genOpt: pattern.Default()}
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *Graph { return e.g }

// Schema returns the engine's schema.
func (e *Engine) Schema() *Schema { return e.schema }

// CheckConstraints verifies the schema constraints against the graph and
// returns a human-readable description of up to max violations.
func (e *Engine) CheckConstraints(max int) []string {
	var out []string
	for _, v := range e.schema.Check(e.g, max) {
		out = append(out, v.String())
	}
	return out
}

// Materialize pre-computes commuting matrices for the given patterns
// (e.g. all meta-paths of a workload) to speed up later queries.
func (e *Engine) Materialize(patterns ...*Pattern) {
	e.ev.Materialize(patterns...)
}

// InvalidateLabels evicts cached commuting matrices of every pattern
// mentioning at least one of the given labels, and returns the number
// evicted. Call it after mutating edges of those labels on the engine's
// graph; matrices of untouched patterns stay hot.
func (e *Engine) InvalidateLabels(labels ...string) int {
	return e.ev.InvalidateLabels(labels...)
}

// InvalidateAll drops the whole commuting-matrix cache. Required after
// adding or removing nodes (every matrix dimension changes).
func (e *Engine) InvalidateAll() int { return e.ev.InvalidateAll() }

// CacheStats returns the commuting-matrix cache counters.
func (e *Engine) CacheStats() CacheStats { return e.ev.Stats() }

// SetCacheLimit bounds the commuting-matrix cache to n matrices with LRU
// eviction; n <= 0 removes the bound.
func (e *Engine) SetCacheLimit(n int) { e.ev.SetCacheLimit(n) }

// searchConfig collects Search options.
type searchConfig struct {
	candidates []NodeID
	noExpand   bool
}

// SearchOption configures Search.
type SearchOption func(*searchConfig)

// WithCandidates restricts answers to the given nodes (typically the
// query's entity type).
func WithCandidates(ids []NodeID) SearchOption {
	return func(c *searchConfig) { c.candidates = ids }
}

// WithCandidateType restricts answers to nodes of the given type tag.
func WithCandidateType(g *Graph, typ string) SearchOption {
	return func(c *searchConfig) { c.candidates = g.NodesOfType(typ) }
}

// WithoutExpansion disables the Algorithm-1 expansion of simple
// patterns; the pattern is scored as given.
func WithoutExpansion() SearchOption {
	return func(c *searchConfig) { c.noExpand = true }
}

// Search answers a similarity query with the structurally robust
// pipeline: the pattern is parsed, simple patterns are expanded against
// the schema constraints into the set E_p (Algorithm 1, with the §6
// optimizations), and the Equation-1 scores of all patterns in E_p are
// aggregated (Proposition 5). Non-simple RRE patterns are scored
// directly (they are robust by Corollary 1 when written in RRE).
func (e *Engine) Search(patternSrc string, query NodeID, opts ...SearchOption) (Ranking, error) {
	p, err := rre.Parse(patternSrc)
	if err != nil {
		return Ranking{}, err
	}
	return e.SearchPattern(p, query, opts...)
}

// SearchPattern is Search with a pre-parsed pattern.
func (e *Engine) SearchPattern(p *Pattern, query NodeID, opts ...SearchOption) (Ranking, error) {
	if !e.g.Has(query) {
		return Ranking{}, fmt.Errorf("relsim: query node %d does not exist", query)
	}
	var cfg searchConfig
	for _, o := range opts {
		o(&cfg)
	}
	if p.IsSimple() && !cfg.noExpand {
		ps, err := pattern.Generate(e.schema, p, e.genOpt)
		if err != nil {
			return Ranking{}, err
		}
		return sim.RelSimAggregate(e.ev, ps, query, cfg.candidates), nil
	}
	return sim.RelSim(e.ev, p, query, cfg.candidates), nil
}

// ExpandPattern runs Algorithm 1 on a simple pattern and returns the
// generated set E_p.
func (e *Engine) ExpandPattern(p *Pattern) ([]*Pattern, error) {
	return pattern.Generate(e.schema, p, e.genOpt)
}

// RelSim scores an RRE pattern with Equation 1 (paper §4).
func (e *Engine) RelSim(p *Pattern, query NodeID, candidates []NodeID) Ranking {
	return sim.RelSim(e.ev, p, query, candidates)
}

// PathSim scores a simple meta-path with Equation 1 (the baseline).
func (e *Engine) PathSim(p *Pattern, query NodeID, candidates []NodeID) (Ranking, error) {
	return sim.PathSim(e.ev, p, query, candidates)
}

// HeteSim scores a (possibly asymmetric) path with the HeteSim relevance
// measure.
func (e *Engine) HeteSim(p *Pattern, query NodeID, candidates []NodeID) Ranking {
	return sim.HeteSimRRE(e.ev, p, query, candidates)
}

// RWR ranks by random walk with restart (restart probability 0.8, the
// paper's setting).
func (e *Engine) RWR(query NodeID, candidates []NodeID) Ranking {
	return sim.RWR(e.ev, sim.DefaultRWR(), query, candidates)
}

// SimRank ranks by Monte-Carlo SimRank (damping 0.8, deterministic
// seed).
func (e *Engine) SimRank(query NodeID, candidates []NodeID) Ranking {
	return sim.SimRankMC(e.ev, sim.DefaultSimRank(), query, candidates)
}

// InstanceCount returns |I^{u,v}(p)|, the number of instances of the
// pattern from u to v (paper §4.2).
func (e *Engine) InstanceCount(p *Pattern, u, v NodeID) int64 {
	return e.ev.Commuting(p).At(int(u), int(v))
}

// Explain enumerates up to limit concrete instances of the pattern from
// u to v — the recorded traversal sequences of the paper's §4.2 instance
// semantics — rendered with node names where available. It answers "why
// are these two entities similar under this pattern?".
func (e *Engine) Explain(p *Pattern, u, v NodeID, limit int) []string {
	ins := e.ev.Instances(p, u, v, limit)
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.Render(e.g)
	}
	return out
}

// WitnessExplanation is the library-level witness annotation for one
// node pair: the instance count of the pattern from u to v plus the
// intermediate nodes of one canonical (shortlex-minimal) derivation.
// Steps holds at most sparse.MaxWitnessSteps nodes; when the derivation
// visits more, Steps is a prefix and Truncated is set. PathNodes is the
// derivation's full intermediate-node count.
type WitnessExplanation struct {
	Count     int64
	Steps     []NodeID
	PathNodes int
	Truncated bool
}

// ExplainWitness answers "why are u and v similar under p?" from the
// witness semiring: one evaluation of the pattern's commuting matrix
// over provenance-carrying values yields, for every reachable pair, the
// instance count and a canonical derivation — so explaining many pairs
// of the same pattern costs one matrix evaluation, not one instance
// enumeration each. It reports false when no instance connects u to v.
// For the exhaustive listing of instances, use Explain.
func (e *Engine) ExplainWitness(p *Pattern, u, v NodeID) (WitnessExplanation, bool) {
	w, ok := eval.WitnessLookup(e.ev.CommutingWitness(p), u, v)
	if !ok {
		return WitnessExplanation{}, false
	}
	ex := WitnessExplanation{Count: w.Count, PathNodes: int(w.Total), Truncated: w.Truncated()}
	for _, id := range w.Steps() {
		ex.Steps = append(ex.Steps, NodeID(id))
	}
	return ex, true
}

// ConjunctivePattern is the conjunctive RRE extension for relationships
// whose shape is cyclic (paper §4.2); see Engine.ConjunctiveSimilarity.
type ConjunctivePattern = eval.ConjunctivePattern

// ConjAtom is one conjunct of a ConjunctivePattern.
type ConjAtom = eval.ConjAtom

// ConjunctiveSimilarity scores Equation 1 over a conjunctive RRE for a
// single node pair.
func (e *Engine) ConjunctiveSimilarity(c ConjunctivePattern, u, v NodeID) (float64, error) {
	return e.ev.ConjunctivePathSim(c, u, v)
}

// Renaming builds a label-renaming transformation; see
// mapping.Renaming.
func Renaming(name string, rename map[string]string) Transformation {
	return mapping.Renaming(name, rename)
}

// RenamingInverse returns the inverse of a bijective renaming, or an
// error if the renaming is not injective.
func RenamingInverse(name string, rename map[string]string) (Transformation, error) {
	return mapping.RenamingInverse(name, rename)
}
