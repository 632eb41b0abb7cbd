package eval_test

import (
	"math/rand"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/rre"
	"relsim/internal/sparse"
)

// The chain differentials live in an external test package because
// they read the dblp-small fixture, whose package imports eval.

// foldStep is the commuting matrix of one meta-path step.
func foldStep(g graph.View, s rre.Step) *sparse.Matrix {
	a := g.Adjacency(s.Label)
	if s.Reverse {
		a = a.Transpose()
	}
	return a
}

// checkChainMatchesFold asserts that the evaluator's planned chain
// equals an explicit left-to-right kernel fold on both rings, compared
// entry by entry (canonical CSR is unique, so equal entries mean equal
// representations).
func checkChainMatchesFold(t *testing.T, g graph.View, p *rre.Pattern) {
	t.Helper()
	steps, ok := p.Steps()
	if !ok {
		t.Fatalf("%s is not a meta-path", p)
	}
	ring := sparse.WitnessRing{}
	want := foldStep(g, steps[0])
	wantW := sparse.GLift[sparse.Witness](ring, want)
	for _, s := range steps[1:] {
		f := foldStep(g, s)
		want = want.Mul(f)
		wantW = sparse.GMulThresh(ring, wantW, sparse.GLift[sparse.Witness](ring, f), sparse.DefaultThresholds())
	}
	ev := eval.New(g)
	if !ev.Commuting(p).Equal(want) {
		t.Fatalf("%s: integer chain diverges from the left-to-right fold", p)
	}
	got := ev.CommutingWitness(p)
	if got.NNZ() != wantW.NNZ() {
		t.Fatalf("%s: witness chain has %d entries, fold %d", p, got.NNZ(), wantW.NNZ())
	}
	wantW.Each(func(r, c int, w sparse.Witness) {
		if gw, _ := got.Lookup(r, c); gw != w {
			t.Fatalf("%s at (%d,%d): witness chain %+v, fold %+v", p, r, c, gw, w)
		}
	})
}

// TestWitnessChainMatchesLeftFold: the chain planner may associate a
// witness chain in any order because the witness semiring is
// associative, vias included. Random multigraphs exercise parallel
// edges; the dblp-small chains are the skewed author, paper and area
// hops the planner reorders on real data.
func TestWitnessChainMatchesLeftFold(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(8)
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode("", "")
		}
		for i := rng.Intn(4 * n); i > 0; i-- {
			g.AddEdge(graph.NodeID(rng.Intn(n)), labels[rng.Intn(len(labels))], graph.NodeID(rng.Intn(n)))
		}
		steps := make([]rre.Step, 2+rng.Intn(5))
		for i := range steps {
			steps[i] = rre.Step{Label: labels[rng.Intn(len(labels))], Reverse: rng.Intn(2) == 1}
		}
		checkChainMatchesFold(t, g, rre.FromSteps(steps))
	}

	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []string{"w-.w.w-.w", "p-in-.r-a.r-a-.p-in", "w.r-a.r-a-.w-", "w-.w.p-in.p-in-.w-.w"} {
		checkChainMatchesFold(t, ds.Graph, rre.MustParse(ps))
	}
}
