package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/pattern"
	"relsim/internal/rre"
	"relsim/internal/schema"
	"relsim/internal/server"
	"relsim/internal/sim"
	"relsim/internal/sparse"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent is the index of the enclosing
// span, -1 for a root; Op numbers the replayed request it belongs to.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// Product spans: the flop bound, output entries, bytes allocated.
	Flops  int64  `json:"flops,omitempty"`
	OutNNZ int64  `json:"out_nnz,omitempty"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
	// Count is |E_p| on pattern.expand, candidates on sim.score, and the
	// planned products on eval.plan, whose Saved are the products the
	// plan's sharing avoided.
	Count int64 `json:"count,omitempty"`
	Saved int64 `json:"saved,omitempty"`
}

func (s span) dur() float64 { return (s.EndUS - s.StartUS) / 1000 } // ms

// tracer keeps spans in memory for one single-goroutine replay.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	op     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1000 }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, StartUS: t.now()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].EndUS = t.now()
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = t.stack[:i]
			break
		}
	}
}

// durations returns the durations in ms of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndUS > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// flopBound is the scalar multiplications Gustavson's SpGEMM performs
// for a·b: Σ_k nnz(a[:,k])·nnz(b[k,:]).
func flopBound(a, b *sparse.Matrix) int64 {
	col := make([]int64, a.Dim())
	a.Each(func(_, c int, _ int64) { col[c]++ })
	var f int64
	for k := range col {
		if col[k] == 0 {
			continue
		}
		var row int64
		b.Row(k, func(int, int64) { row++ })
		f += col[k] * row
	}
	return f
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// productProbe turns the evaluator's mul hook into one span per
// product. The hook fires just before a product starts; the span ends
// at the next hook or when the enclosing call returns (closeOpen), so
// it also covers the chain planner's occupancy update after the
// product. Operand bookkeeping (the flop bound) runs before the span
// opens. Annotated products pass nil operands: counted, no flops.
type productProbe struct {
	tr       *tracer
	open     int
	alloc0   uint64
	operands []*sparse.Matrix // operands seen since the last reset
}

func newProductProbe(tr *tracer) *productProbe { return &productProbe{tr: tr, open: -1} }

func (p *productProbe) hook(a, b *sparse.Matrix) {
	p.closeOpen()
	var f int64
	if a != nil && b != nil {
		f = flopBound(a, b)
		p.operands = append(p.operands, a, b)
	}
	p.alloc0 = allocatedBytes()
	p.open = p.tr.begin("sparse.product")
	p.tr.spans[p.open].Flops = f
}

func (p *productProbe) closeOpen() {
	if p.open < 0 {
		return
	}
	p.tr.end(p.open)
	p.tr.spans[p.open].Alloc = allocatedBytes() - p.alloc0
	p.open = -1
}

// materializeNode evaluates one planned node under a span and assigns
// output sizes to the products it made. For a concatenation the
// products' outputs are the operands that are not factors, plus the
// result; for a closure each squaring's output is the next operand.
func (p *productProbe) materializeNode(ev *eval.Evaluator, side *eval.Evaluator, nd *rre.Pattern) {
	first := len(p.tr.spans)
	p.operands = p.operands[:0]
	id := p.tr.begin("eval.node")
	res := ev.Commuting(nd)
	p.closeOpen()
	p.tr.end(id)
	var prods []int
	for i := first; i < len(p.tr.spans); i++ {
		if p.tr.spans[i].Name == "sparse.product" {
			prods = append(prods, i)
		}
	}
	if len(prods) == 0 {
		return
	}
	factors := map[*sparse.Matrix]bool{}
	if nd.Kind() == rre.KindConcat {
		for _, s := range nd.Subs() {
			factors[side.Commuting(s)] = true
		}
	}
	var outs []int64
	seen := map[*sparse.Matrix]bool{}
	for i, m := range p.operands {
		if nd.Kind() == rre.KindStar && i < 2 {
			continue // the first squaring's operand is the seed, not an output
		}
		if factors[m] || seen[m] {
			continue
		}
		seen[m] = true
		outs = append(outs, int64(m.NNZ()))
	}
	outs = append(outs, int64(res.NNZ()))
	for i, sp := range prods {
		if i < len(outs) {
			p.tr.spans[sp].OutNNZ = outs[i]
		}
	}
}

// replayer re-executes requests through the layers' public functions
// in the order the handlers call them: rre.Parse → pattern.Generate →
// eval.PlanWorkload → Commuting along the schedule → sim.RelSim or
// RelSimAggregate → json.Marshal.
type replayer struct {
	tr    *tracer
	probe *productProbe
	sc    *schema.Schema
}

func newReplayer(sc *schema.Schema) *replayer {
	tr := newTracer()
	return &replayer{tr: tr, probe: newProductProbe(tr), sc: sc}
}

// evaluator binds an evaluator the way the server does: canonical cache
// keys, the default parallel gate, the probe as mul hook.
func (r *replayer) evaluator(view graph.View, version uint64, cache *eval.Cache) *eval.Evaluator {
	ev := eval.NewVersioned(view, version, cache)
	ev.SetParallelThresholds(sparse.DefaultThresholds())
	ev.SetCanonicalKeys(true)
	ev.SetMulHook(r.probe.hook)
	return ev
}

// patterns mirrors the server's queryPatterns: parse, then Algorithm-1
// expansion for the robust pipeline on a simple pattern.
func (r *replayer) patterns(q *server.SearchRequest) ([]*rre.Pattern, bool, error) {
	id := r.tr.begin("rre.parse")
	p, err := rre.Parse(q.Pattern)
	r.tr.end(id)
	if err != nil {
		return nil, false, err
	}
	if (q.Alg == "" || q.Alg == "search") && p.IsSimple() && !q.NoExpand {
		id := r.tr.begin("pattern.expand")
		ps, err := pattern.Generate(r.sc, p, pattern.Default())
		r.tr.end(id)
		if err != nil {
			return nil, false, err
		}
		r.tr.spans[id].Count = int64(len(ps))
		return ps, true, nil
	}
	return []*rre.Pattern{p}, false, nil
}

// score mirrors the server's runSearch scoring and annotation.
func (r *replayer) score(ev *eval.Evaluator, q *server.SearchRequest) (*server.SearchResponse, error) {
	ps, expanded, err := r.patterns(q)
	if err != nil {
		return nil, err
	}
	g := ev.Graph()
	node, ok := g.NodeByName(q.Query)
	if !ok {
		return nil, fmt.Errorf("query node %q not found", q.Query)
	}
	cands := []graph.NodeID{}
	if q.Type != "" {
		if c := g.NodesOfType(q.Type); c != nil {
			cands = c
		}
	}
	id := r.tr.begin("sim.score")
	var rank sim.Ranking
	if q.Alg == "relsim" {
		rank = sim.RelSim(ev, ps[0], node.ID, cands)
	} else {
		rank = sim.RelSimAggregate(ev, ps, node.ID, cands)
	}
	r.probe.closeOpen()
	r.tr.end(id)
	r.tr.spans[id].Count = int64(len(cands))
	top := q.Top
	if top <= 0 {
		top = 10
	}
	rank = rank.TopK(top)
	resp := &server.SearchResponse{Query: q.Query, QueryID: node.ID, Pattern: q.Pattern, Alg: q.Alg,
		Annotate: q.Annotate, Version: ev.Version(), Results: make([]server.ScoredNode, rank.Len())}
	if expanded {
		resp.Expanded = len(ps)
	}
	for i, v := range rank.IDs {
		resp.Results[i] = server.ScoredNode{ID: v, Name: g.Node(v).Name, Score: rank.Scores[i]}
	}
	if q.Annotate != "" {
		p, err := rre.Parse(q.Pattern)
		if err != nil {
			return nil, err
		}
		id := r.tr.begin("eval.annotate")
		wm := ev.CommutingWitness(p)
		r.probe.closeOpen()
		for i := range resp.Results {
			eval.WitnessLookup(wm, node.ID, resp.Results[i].ID)
		}
		r.tr.end(id)
	}
	return resp, nil
}

// batch mirrors handleBatch: expand and plan, materialize the schedule
// one node at a time, score every query, encode the response.
func (r *replayer) batch(ev *eval.Evaluator, req *server.BatchRequest) (server.BatchResponse, error) {
	resp := server.BatchResponse{Version: ev.Version(), Results: make([]server.BatchResult, len(req.Queries))}
	seen := map[string]bool{}
	var pats []*rre.Pattern
	for i := range req.Queries {
		ps, _, err := r.patterns(&req.Queries[i])
		if err != nil {
			return resp, err
		}
		for _, p := range ps {
			if k := p.String(); !seen[k] {
				seen[k] = true
				pats = append(pats, p)
			}
		}
	}
	id := r.tr.begin("eval.plan")
	plan := eval.PlanWorkload(pats)
	r.tr.end(id)
	st := plan.Stats()
	r.tr.spans[id].Count = int64(st.Products)
	r.tr.spans[id].Saved = int64(st.ProductsSaved)

	side := eval.NewVersioned(ev.Graph(), ev.Version(), ev.Cache())
	side.SetCanonicalKeys(true)
	id = r.tr.begin("eval.materialize")
	for _, nd := range plan.Schedule() {
		r.probe.materializeNode(ev, side, nd)
	}
	for _, p := range plan.Unplanned() {
		ev.Commuting(p)
		r.probe.closeOpen()
	}
	r.tr.end(id)

	for i := range req.Queries {
		res, err := r.score(ev, &req.Queries[i])
		if err != nil {
			return resp, err
		}
		resp.Results[i] = server.BatchResult{SearchResponse: res}
	}
	r.encode(resp)
	return resp, nil
}

func (r *replayer) encode(v any) {
	id := r.tr.begin("server.encode")
	json.Marshal(v) // the measured work; the bytes are not needed
	r.tr.end(id)
}
