package main

import (
	"fmt"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/pattern"
	"relsim/internal/rre"
	"relsim/internal/schema"
	"relsim/internal/server"
	"relsim/internal/sim"
)

// reference answers queries the slow, independent way: a fresh
// evaluator over the pinned snapshot with no workload plan and raw
// (non-canonical) cache keys, calling eval and sim directly.
type reference struct {
	view graph.View
	ev   *eval.Evaluator
	sc   *schema.Schema
}

func newReference(view graph.View, version uint64, sc *schema.Schema) *reference {
	return &reference{view: view, ev: eval.NewVersioned(view, version, eval.NewCache()), sc: sc}
}

// rank computes the ranking the server should return for q.
func (r *reference) rank(q *server.SearchRequest) (sim.Ranking, error) {
	p, err := rre.Parse(q.Pattern)
	if err != nil {
		return sim.Ranking{}, err
	}
	node, ok := r.view.NodeByName(q.Query)
	if !ok {
		return sim.Ranking{}, fmt.Errorf("query node %q not found", q.Query)
	}
	cands := []graph.NodeID{}
	if q.Type != "" {
		if c := r.view.NodesOfType(q.Type); c != nil {
			cands = c
		}
	}
	var rank sim.Ranking
	switch q.Alg {
	case "relsim":
		rank = sim.RelSim(r.ev, p, node.ID, cands)
	case "", "search":
		ps := []*rre.Pattern{p}
		if p.IsSimple() && !q.NoExpand {
			if ps, err = pattern.Generate(r.sc, p, pattern.Default()); err != nil {
				return sim.Ranking{}, err
			}
		}
		rank = sim.RelSimAggregate(r.ev, ps, node.ID, cands)
	default:
		return sim.Ranking{}, fmt.Errorf("alg %q is not checked", q.Alg)
	}
	top := q.Top
	if top <= 0 {
		top = 10
	}
	return rank.TopK(top), nil
}

// check compares one served answer (ids and scores, exactly) with the
// reference ranking.
func (r *reference) check(q *server.SearchRequest, got *server.SearchResponse) error {
	if got == nil {
		return fmt.Errorf("%s %q: no answer", q.Pattern, q.Query)
	}
	want, err := r.rank(q)
	if err != nil {
		return err
	}
	if len(got.Results) != want.Len() {
		return fmt.Errorf("%s %q: %d results, reference has %d", q.Pattern, q.Query, len(got.Results), want.Len())
	}
	for i, res := range got.Results {
		if res.ID != want.IDs[i] || res.Score != want.Scores[i] {
			return fmt.Errorf("%s %q: result %d is (%d, %v), reference (%d, %v)",
				q.Pattern, q.Query, i, res.ID, res.Score, want.IDs[i], want.Scores[i])
		}
	}
	return nil
}
