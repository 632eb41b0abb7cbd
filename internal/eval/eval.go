// Package eval computes RRE pattern instances over a graph database.
//
// The primary entry point is Evaluator.Commuting, which materializes the
// commuting matrix M_p of a pattern p following the matrix rules of
// paper §4.3:
//
//	M_a        = A_a
//	M_{p⁻}     = M_pᵀ
//	M_{p1·p2}  = M_{p1} M_{p2}
//	M_{p1+p2}  = M_{p1} + M_{p2}     (p1 ≠ p2; Alt dedupes equal branches)
//	M_{⌈⌈p⌋⌋}  = M_p > 0
//	M_{[p]}    = diag{ M_p (M_pᵀ > 0) }
//
// Entry (u, v) of M_p is |I^{u,v}(p)|, the number of instances of p from
// u to v. Kleene star, whose instance set the paper defines as the union
// I(ε) ∪ I(p) ∪ I(p²) ∪ …, is materialized as the boolean
// reflexive-transitive closure of M_p: its instance count is capped at 1
// (existence), since the raw count is unbounded on cyclic data.
//
// CountInstances is a direct recursive counter over the graph with the
// same semantics; it exists as an executable specification that the
// matrix algebra is property-tested against.
package eval

import (
	"context"
	"sync"
	"sync/atomic"

	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Evaluator evaluates RRE patterns over one graph view, caching
// commuting matrices in a versioned Cache keyed by (version, canonical
// pattern string). It is safe for concurrent use.
//
// There are two binding modes:
//
//   - New(g) binds a mutable graph at version 0 with a private cache —
//     the library/Engine mode. The graph must not be mutated during an
//     evaluation; between evaluations the owner reports every change
//     via InvalidateLabels / InvalidateAll, exactly as before.
//   - NewVersioned(view, version, cache) binds an immutable snapshot —
//     the MVCC serving mode. Entries the evaluator writes are keyed by
//     its version, so evaluators over different snapshots share one
//     cache without aliasing, and a write never invalidates a
//     still-pinned version's entries.
type Evaluator struct {
	g       graph.View
	version uint64
	cache   *Cache
	ctx     context.Context // nil = never canceled

	// counters tallies this evaluator's own cache traffic and matrix
	// products — per-request observability, as opposed to the shared
	// Cache.Stats totals. WithContext copies share the struct, so a
	// request's whole evaluation (including /batch worker copies) lands
	// in one place.
	counters *Counters

	mu         sync.Mutex
	noPlanning bool
	canonical  bool
	gate       sparse.Thresholds
	mulHook    func(a, b *sparse.Matrix)
}

// Counters are one evaluator's private tallies: cache hits and misses
// its lookups saw, and matrix products it performed. The serving layer
// reads them per request for the slow-query log and Server-Timing
// phase attribution. Fields are atomics — /batch shares one evaluator
// across its worker pool.
type Counters struct {
	Hits, Misses, Products atomic.Uint64
}

// New returns an evaluator over g at version 0 with a private cache.
func New(g graph.View) *Evaluator { return NewVersioned(g, 0, NewCache()) }

// NewVersioned returns an evaluator bound to one graph version, writing
// and reading cache entries keyed by that version. The view must be
// immutable for the evaluator's lifetime (a graph.Snapshot, or a graph
// the owner promises not to mutate while this version is live).
func NewVersioned(g graph.View, version uint64, cache *Cache) *Evaluator {
	if cache == nil {
		cache = NewCache()
	}
	return &Evaluator{g: g, version: version, cache: cache, counters: &Counters{}, gate: sparse.DefaultThresholds()}
}

// WithContext returns a copy of the evaluator whose evaluations honor
// ctx: cancellation is checked between matrix products, and a canceled
// evaluation aborts with a *Canceled panic that Guard converts to an
// error. The copy shares the cache and graph with the original.
func (e *Evaluator) WithContext(ctx context.Context) *Evaluator {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Evaluator{
		g:          e.g,
		version:    e.version,
		cache:      e.cache,
		ctx:        ctx,
		counters:   e.counters,
		noPlanning: e.noPlanning,
		canonical:  e.canonical,
		gate:       e.gate,
		mulHook:    e.mulHook,
	}
}

// Counters returns the evaluator's private tally of cache hits/misses
// and matrix products. The struct is shared with WithContext copies and
// lives for the evaluator's lifetime.
func (e *Evaluator) Counters() *Counters { return e.counters }

// Graph returns the underlying graph view.
func (e *Evaluator) Graph() graph.View { return e.g }

// Version returns the graph version the evaluator is bound to.
func (e *Evaluator) Version() uint64 { return e.version }

// Cache returns the evaluator's (possibly shared) commuting-matrix
// cache.
func (e *Evaluator) Cache() *Cache { return e.cache }

// SetParallelThresholds overrides the gate deciding when concatenation
// products use the parallel SpGEMM kernel. The default is
// sparse.DefaultThresholds; a server tuned for experiment-scale graphs
// lowers it so /batch materialization parallelizes.
func (e *Evaluator) SetParallelThresholds(t sparse.Thresholds) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gate = t
}

// CacheSize returns the number of materialized commuting matrices.
func (e *Evaluator) CacheSize() int { return e.cache.Size() }

// Stats returns the cache counters.
func (e *Evaluator) Stats() CacheStats { return e.cache.Stats() }

// SetCacheLimit bounds the cache to at most n matrices (LRU eviction);
// n <= 0 removes the bound.
func (e *Evaluator) SetCacheLimit(n int) { e.cache.SetLimit(n) }

// InvalidateLabels evicts cached matrices (up to and including this
// evaluator's version) whose pattern mentions at least one of the given
// labels, returning the number evicted. This is the mutation hook for
// the in-place-mutable binding mode; see Cache.InvalidateLabels.
func (e *Evaluator) InvalidateLabels(labels ...string) int {
	return e.cache.InvalidateLabels(e.version, labels...)
}

// InvalidateAll drops the whole cache. Required after node-count
// changes to an in-place mutated graph (every matrix dimension goes
// stale).
func (e *Evaluator) InvalidateAll() int { return e.cache.InvalidateAll() }

// checkCanceled panics with *Canceled when the evaluator's context is
// done. It is called between matrix products so a timed-out query stops
// burning CPU mid-evaluation; Guard at the API boundary converts the
// panic into an error.
func (e *Evaluator) checkCanceled() {
	if e.ctx == nil {
		return
	}
	if err := e.ctx.Err(); err != nil {
		panic(&Canceled{Err: err})
	}
}

// SetCanonicalKeys makes the evaluator canonicalize patterns
// (rre.CanonicalExact) before evaluation, so cache entries are keyed by
// the canonical rendering and semantically interchangeable patterns
// (alt permutations, redundant grouping) share one materialization.
// Patterns whose canonicalization is not count-exact are evaluated
// under their raw key, exactly as without this mode. The workload
// planner requires canonical keys: DAG nodes are canonical, and query
// evaluation must hit the matrices the plan materialized.
func (e *Evaluator) SetCanonicalKeys(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.canonical = on
}

// SetMulHook installs fn to observe every matrix product the evaluator
// performs (concatenation chains and Kleene-star closure squarings).
// Used by the serving layer to count materialized products and by tests
// to assert the single-materialization guarantee. fn must be safe for
// concurrent use; nil removes the hook.
func (e *Evaluator) SetMulHook(fn func(a, b *sparse.Matrix)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mulHook = fn
}

// mul multiplies two matrices under the evaluator's parallel gate,
// checking cancellation first.
func (e *Evaluator) mul(a, b *sparse.Matrix) *sparse.Matrix {
	e.checkCanceled()
	e.mu.Lock()
	gate, hook := e.gate, e.mulHook
	e.mu.Unlock()
	if hook != nil {
		hook(a, b)
	}
	e.counters.Products.Add(1)
	return a.MulThresh(b, gate)
}

// booleanClosure is sparse.BooleanClosure routed through the
// evaluator's mul, so the repeated-squaring products of a Kleene star
// honor cancellation and the parallel gate like every other product.
func (e *Evaluator) booleanClosure(m *sparse.Matrix) *sparse.Matrix {
	cur := sparse.Identity(m.Dim()).Add(m.Boolean()).Boolean()
	for {
		next := e.mul(cur, cur).Boolean()
		if next.Equal(cur) {
			return cur
		}
		cur = next
	}
}

// Materialize precomputes and caches the commuting matrices of the given
// patterns. Table 4 of the paper assumes all meta-paths up to length 3
// are materialized; the experiment harness calls this with that set.
func (e *Evaluator) Materialize(ps ...*rre.Pattern) {
	for _, p := range ps {
		e.Commuting(p)
	}
}

// Commuting returns the commuting matrix M_p. Results are cached per
// (version, pattern string), including all sub-pattern matrices. Under
// SetCanonicalKeys the pattern is canonicalized first, so the key is
// the canonical rendering and every subexpression of a canonical
// pattern is cached under its own canonical key.
func (e *Evaluator) Commuting(p *rre.Pattern) *sparse.Matrix {
	e.mu.Lock()
	canonical := e.canonical
	e.mu.Unlock()
	if canonical {
		// Canonical forms are closed under Subs(), so the recursion below
		// only ever sees canonical patterns and canonicalizes once here.
		// Inexact canonicalizations (disjunction branches collapsing, which
		// would change counts) keep the raw pattern and its raw key — the
		// exact behavior of a non-canonical evaluator.
		if c, exact := rre.CanonicalExact(p); exact {
			p = c
		}
	}
	return e.commuting(p)
}

// commuting is the cache-backed recursion; p must already be canonical
// when the evaluator runs in canonical-key mode.
func (e *Evaluator) commuting(p *rre.Pattern) *sparse.Matrix {
	key := Key{Version: e.version, Pattern: p.String()}
	m, gen, ok := e.cache.lookup(key)
	if ok {
		e.counters.Hits.Add(1)
		return m
	}
	e.counters.Misses.Add(1)
	// Recompute outside any lock. If an invalidation runs while we
	// compute, the matrix may reflect a graph state that is already
	// stale: return it to this caller (the read raced the write
	// regardless) but do not poison the cache — insert drops it when the
	// generation moved past gen.
	m = e.compute(p)
	e.cache.insert(key, m, p.Labels(), gen)
	return m
}

func (e *Evaluator) compute(p *rre.Pattern) *sparse.Matrix {
	e.checkCanceled()
	n := e.g.NumNodes()
	switch p.Kind() {
	case rre.KindEps:
		return sparse.Identity(n)
	case rre.KindLabel:
		return e.g.Adjacency(p.LabelName())
	case rre.KindRev:
		return e.commuting(p.Subs()[0]).Transpose()
	case rre.KindConcat:
		factors := make([]*sparse.Matrix, len(p.Subs()))
		for i, s := range p.Subs() {
			factors[i] = e.commuting(s)
		}
		e.mu.Lock()
		planned := !e.noPlanning
		e.mu.Unlock()
		if !planned {
			m := factors[0]
			for _, f := range factors[1:] {
				m = e.mul(m, f)
			}
			return m
		}
		return e.mulChain(factors)
	case rre.KindAlt:
		m := e.commuting(p.Subs()[0])
		for _, s := range p.Subs()[1:] {
			m = m.Add(e.commuting(s))
		}
		return m
	case rre.KindStar:
		return e.booleanClosure(e.commuting(p.Subs()[0]))
	case rre.KindSkip:
		return e.commuting(p.Subs()[0]).Boolean()
	case rre.KindNest:
		return e.commuting(p.Subs()[0]).DiagMulBool()
	}
	panic("eval: invalid pattern kind")
}

// CountInstances returns |I^{u,v}(p)| by direct recursion over the graph,
// without materializing matrices. This is the reference implementation of
// the paper's instance semantics (§4.2) used to validate Commuting.
func (e *Evaluator) CountInstances(p *rre.Pattern, u, v graph.NodeID) int64 {
	return e.count(p, u, v)
}

func (e *Evaluator) count(p *rre.Pattern, u, v graph.NodeID) int64 {
	g := e.g
	switch p.Kind() {
	case rre.KindEps:
		if u == v {
			return 1
		}
		return 0
	case rre.KindLabel:
		return int64(g.EdgeCount(u, p.LabelName(), v))
	case rre.KindRev:
		return e.count(p.Subs()[0], v, u)
	case rre.KindConcat:
		subs := p.Subs()
		head, tail := subs[0], rre.Concat(subs[1:]...)
		var total int64
		for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
			c1 := e.count(head, u, w)
			if c1 == 0 {
				continue
			}
			total += c1 * e.count(tail, w, v)
		}
		return total
	case rre.KindAlt:
		var total int64
		for _, s := range p.Subs() {
			total += e.count(s, u, v)
		}
		return total
	case rre.KindStar:
		if e.reachable(p.Subs()[0], u, v) {
			return 1
		}
		return 0
	case rre.KindSkip:
		if e.exists(p.Subs()[0], u, v) {
			return 1
		}
		return 0
	case rre.KindNest:
		if u != v {
			return 0
		}
		var total int64
		for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
			total += e.count(p.Subs()[0], u, w)
		}
		return total
	}
	panic("eval: invalid pattern kind")
}

// exists reports whether any instance of p goes from u to v.
func (e *Evaluator) exists(p *rre.Pattern, u, v graph.NodeID) bool {
	return e.count(p, u, v) > 0
}

// reachable reports whether v is reachable from u by zero or more p-steps.
func (e *Evaluator) reachable(p *rre.Pattern, u, v graph.NodeID) bool {
	if u == v {
		return true
	}
	n := e.g.NumNodes()
	seen := make([]bool, n)
	seen[u] = true
	frontier := []graph.NodeID{u}
	for len(frontier) > 0 {
		var next []graph.NodeID
		for _, x := range frontier {
			for y := graph.NodeID(0); int(y) < n; y++ {
				if seen[y] {
					continue
				}
				if e.exists(p, x, y) {
					if y == v {
						return true
					}
					seen[y] = true
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return false
}

// PathSimScore computes Equation 1 of the paper from a commuting matrix:
//
//	sim_p(u, v) = 2·M_p(u,v) / (M_p(u,u) + M_p(v,v))
//
// It returns 0 when the denominator is zero.
func PathSimScore(m *sparse.Matrix, u, v graph.NodeID) float64 {
	den := m.At(int(u), int(u)) + m.At(int(v), int(v))
	if den == 0 {
		return 0
	}
	return 2 * float64(m.At(int(u), int(v))) / float64(den)
}

// MetaPathsUpTo enumerates all simple patterns (meta-paths) over the
// given label set with length in [1, maxLen], each step either forward
// or reverse. This is the materialization set used by Table 4 ("all
// meta-paths up to size 3"). The count is (2·|labels|)^len per length,
// so callers should keep maxLen and the label set small.
func MetaPathsUpTo(labels []string, maxLen int) []*rre.Pattern {
	var out []*rre.Pattern
	steps := make([]rre.Step, 0, maxLen)
	var gen func(remaining int)
	gen = func(remaining int) {
		if len(steps) > 0 {
			out = append(out, rre.FromSteps(steps))
		}
		if remaining == 0 {
			return
		}
		for _, l := range labels {
			for _, reverse := range []bool{false, true} {
				steps = append(steps, rre.Step{Label: l, Reverse: reverse})
				gen(remaining - 1)
				steps = steps[:len(steps)-1]
			}
		}
	}
	gen(maxLen)
	return out
}
