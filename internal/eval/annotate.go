package eval

import (
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Annotated (provenance-carrying) evaluation. The same commuting-matrix
// recursion as Evaluator.compute, run over an annotation semiring via
// the generic kernel, so every entry of the result carries its
// derivation metadata computed *during* SpGEMM — no second pass, no
// instance enumeration. Results are cached in the shared versioned
// cache under ring-tagged keys, which is what lets a warm /explain be a
// pure projection: the witness matrix a previous annotated request
// materialized is read back with zero additional products.
//
// Two differences from the integer path, both deliberate:
//
//   - Concatenations fold strictly left-to-right instead of going
//     through the chain planner. Counts are association-independent;
//     witness vias are not, and a deterministic association makes the
//     annotation reproducible across runs and replicas.
//   - Kleene star converges on support (see sparse.GBooleanClosure);
//     annotation values keep growing with each squaring, so value
//     convergence would never terminate.

// RingWitness tags witness-annotated cache keys and request
// parameters. The integer ring's tag is the empty string (see Key).
const RingWitness = "witness"

// AnnotationCostFactor weights product-count estimates for annotated
// evaluation: an annotated product runs the same Gustavson kernel over
// entries a constant factor wider than int64 (a Witness is ~3 words
// plus the via prefix), so admission prices it as this many integer
// products. Measured on the dblp fixtures the witness kernel lands at
// 1.5–2x the integer kernel; 2 keeps the 422 pricing conservative.
const AnnotationCostFactor = 2

// EstimateProductsAnnotated prices a pattern set for a request that
// evaluates both the integer ranking matrices and their annotated
// twins: the integer estimate plus the annotation surcharge.
func EstimateProductsAnnotated(patterns []*rre.Pattern) int {
	base := EstimateProducts(patterns)
	return base * (1 + AnnotationCostFactor)
}

// annotator binds an evaluator to one annotation ring. It reuses the
// evaluator's graph, version, cache, cancellation, counters, gate, and
// mul hook — annotated products are observable exactly like integer
// ones, which is how tests assert a warm projection performs none.
type annotator[T any, R sparse.Ring[T]] struct {
	e    *Evaluator
	ring R
}

// mul is the annotated counterpart of Evaluator.mul: cancellation
// check, hook, product accounting, gated generic kernel. The hook
// receives nils — annotated operands are not integer matrices — but
// still fires once per product so product counters stay honest.
func (a annotator[T, R]) mul(x, y *sparse.GMatrix[T]) *sparse.GMatrix[T] {
	e := a.e
	e.checkCanceled()
	e.mu.Lock()
	gate, hook := e.gate, e.mulHook
	e.mu.Unlock()
	if hook != nil {
		hook(nil, nil)
	}
	e.counters.Products.Add(1)
	return sparse.GMulThresh(a.ring, x, y, gate)
}

// closure is the support-converging boolean closure with product
// accounting, the annotated mirror of Evaluator.booleanClosure.
func (a annotator[T, R]) closure(m *sparse.GMatrix[T]) *sparse.GMatrix[T] {
	ring := a.ring
	cur := sparse.GBoolean(ring, sparse.GAdd(ring, sparse.GIdentity[T](ring, m.Dim()), sparse.GBoolean(ring, m)))
	for {
		next := sparse.GBoolean(ring, a.mul(cur, cur))
		if sparse.SameSupport(next, cur) {
			return cur
		}
		cur = next
	}
}

// commuting is the ring-tagged cache-backed recursion, the annotated
// mirror of Evaluator.commuting.
func (a annotator[T, R]) commuting(p *rre.Pattern) *sparse.GMatrix[T] {
	e := a.e
	key := Key{Version: e.version, Ring: a.ring.Name(), Pattern: p.String()}
	ent, gen, ok := e.cache.lookupEntry(key)
	if ok {
		if m, isRing := ent.(*sparse.GMatrix[T]); isRing {
			e.counters.Hits.Add(1)
			return m
		}
	}
	e.counters.Misses.Add(1)
	m := a.compute(p)
	e.cache.insert(key, m, p.Labels(), gen)
	return m
}

func (a annotator[T, R]) compute(p *rre.Pattern) *sparse.GMatrix[T] {
	e := a.e
	e.checkCanceled()
	ring := a.ring
	n := e.g.NumNodes()
	switch p.Kind() {
	case rre.KindEps:
		return sparse.GIdentity[T](ring, n)
	case rre.KindLabel:
		return sparse.GLift[T](ring, e.g.Adjacency(p.LabelName()))
	case rre.KindRev:
		return a.commuting(p.Subs()[0]).Transpose()
	case rre.KindConcat:
		m := a.commuting(p.Subs()[0])
		for _, s := range p.Subs()[1:] {
			m = a.mul(m, a.commuting(s))
		}
		return m
	case rre.KindAlt:
		m := a.commuting(p.Subs()[0])
		for _, s := range p.Subs()[1:] {
			m = sparse.GAdd(ring, m, a.commuting(s))
		}
		return m
	case rre.KindStar:
		return a.closure(a.commuting(p.Subs()[0]))
	case rre.KindSkip:
		return sparse.GBoolean(ring, a.commuting(p.Subs()[0]))
	case rre.KindNest:
		return sparse.GDiagMulBool(ring, a.commuting(p.Subs()[0]))
	}
	panic("eval: invalid pattern kind")
}

// annotated canonicalizes p under the evaluator's key mode (so tagged
// keys line up with the integer keys of the same pattern) and runs the
// ring recursion.
func annotated[T any, R sparse.Ring[T]](e *Evaluator, ring R, p *rre.Pattern) *sparse.GMatrix[T] {
	e.mu.Lock()
	canonical := e.canonical
	e.mu.Unlock()
	if canonical {
		if c, exact := rre.CanonicalExact(p); exact {
			p = c
		}
	}
	return annotator[T, R]{e: e, ring: ring}.commuting(p)
}

// CommutingWitness returns the witness-annotated commuting matrix of p:
// entry (u,v) carries |I^{u,v}(p)| as a saturating count plus a bounded
// derivation prefix (the first sparse.MaxWitnessSteps intermediate
// nodes of a shortlex-minimal derivation). Results are cached under
// (version, "witness", pattern).
func (e *Evaluator) CommutingWitness(p *rre.Pattern) *sparse.GMatrix[sparse.Witness] {
	return annotated[sparse.Witness](e, sparse.WitnessRing{}, p)
}

// WitnessLookup returns the witness value at (u, v), if the entry is
// nonzero.
func WitnessLookup(m *sparse.GMatrix[sparse.Witness], u, v graph.NodeID) (sparse.Witness, bool) {
	return m.Lookup(int(u), int(v))
}

// WitnessPathSimScore computes Equation 1 of the paper from a
// witness-annotated commuting matrix's counts — the projection
// counterpart of PathSimScore, so a warm /explain never needs the
// integer matrix.
func WitnessPathSimScore(m *sparse.GMatrix[sparse.Witness], u, v graph.NodeID) float64 {
	diag := func(i int) int64 {
		w, ok := m.Lookup(i, i)
		if !ok {
			return 0
		}
		return w.Count
	}
	den := diag(int(u)) + diag(int(v))
	if den == 0 {
		return 0
	}
	var num int64
	if w, ok := m.Lookup(int(u), int(v)); ok {
		num = w.Count
	}
	return 2 * float64(num) / float64(den)
}
