package eval

import (
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// Annotated (provenance-carrying) evaluation runs the commuting-matrix
// recursion (ringEval) over an annotation semiring, so every entry of
// the result carries its derivation metadata computed *during* SpGEMM —
// no second pass, no instance enumeration. Results are cached in the
// shared versioned cache under ring-tagged keys, which is what lets a
// warm /explain be a pure projection: the witness matrix a previous
// annotated request materialized is read back with zero additional
// products.

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

// CommutingWitness returns the witness-annotated commuting matrix of p:
// entry (u,v) carries |I^{u,v}(p)| as a saturating count plus a bounded
// derivation prefix (the first sparse.MaxWitnessSteps intermediate
// nodes of a shortlex-minimal derivation). Results are cached under
// (version, "witness", pattern).
func (e *Evaluator) CommutingWitness(p *rre.Pattern) *sparse.GMatrix[sparse.Witness] {
	r := e.witnessEval()
	return r.commuting(r.canonicalize(p))
}

// witnessEval binds the recursion to the witness ring. Label matrices
// are lifted into the ring. The mul hook sees nil operands — annotated
// operands are not integer matrices — but still fires once per
// product, so product counters stay honest.
func (e *Evaluator) witnessEval() ringEval[sparse.Witness, sparse.WitnessRing] {
	return newRingEval(e, sparse.WitnessRing{}, RingWitness, liftWitness,
		func(*sparse.GMatrix[sparse.Witness]) *sparse.Matrix { return nil })
}

func liftWitness(m *sparse.Matrix) *sparse.GMatrix[sparse.Witness] {
	return sparse.GLift[sparse.Witness](sparse.WitnessRing{}, m)
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
