package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"relsim/internal/rre"
	"relsim/internal/store"
)

// doJSON posts body straight through ServeHTTP (no TCP), returning the
// status code and raw response bytes for byte-level comparison.
func doJSON(t testing.TB, srv *Server, path string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// randWorkloadPattern builds a random RRE over the test graph's labels,
// with disjunction branch order left as generated — so semantically
// equal patterns reach the server under different renderings, which is
// exactly what canonicalization must absorb.
func randWorkloadPattern(rng *rand.Rand, depth int) *rre.Pattern {
	labels := []string{"by", "cites"}
	leaf := func() *rre.Pattern {
		p := rre.Label(labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 1 {
			p = rre.Rev(p)
		}
		return p
	}
	if depth == 0 || rng.Intn(4) == 0 {
		return leaf()
	}
	switch rng.Intn(8) {
	case 0, 1:
		return rre.Concat(randWorkloadPattern(rng, depth-1), randWorkloadPattern(rng, depth-1))
	case 2, 3:
		return rre.Alt(randWorkloadPattern(rng, depth-1), randWorkloadPattern(rng, depth-1))
	case 4:
		return rre.Alt(randWorkloadPattern(rng, depth-1), randWorkloadPattern(rng, depth-1), randWorkloadPattern(rng, depth-1))
	case 5:
		return rre.Nest(randWorkloadPattern(rng, depth-1))
	case 6:
		return rre.Skip(randWorkloadPattern(rng, depth-1))
	default:
		return rre.Star(randWorkloadPattern(rng, depth-1))
	}
}

// randWorkload draws one /batch request: a handful of queries over
// random patterns, nodes, types and algorithms, duplicates included.
func randWorkload(rng *rand.Rand) BatchRequest {
	nodes := []string{"p1", "p2", "p3", "p4", "a1", "a2", "a3"}
	types := []string{"", "paper", "author"}
	algs := []string{"", "relsim"}
	n := 3 + rng.Intn(5)
	qs := make([]SearchRequest, n)
	for i := range qs {
		if i > 0 && rng.Intn(5) == 0 {
			qs[i] = qs[rng.Intn(i)] // exact duplicate of an earlier query
			continue
		}
		qs[i] = SearchRequest{
			Pattern:  randWorkloadPattern(rng, 1+rng.Intn(3)).String(),
			Query:    nodes[rng.Intn(len(nodes))],
			Type:     types[rng.Intn(len(types))],
			Alg:      algs[rng.Intn(len(algs))],
			NoExpand: rng.Intn(4) == 0,
		}
	}
	return BatchRequest{Workers: 1 + rng.Intn(4), Queries: qs}
}

// TestBatchPlanDifferential is the harness that locked the planner in:
// over 500 seeded random workloads, /batch with workload planning must
// answer byte-identically to /batch without it. The two servers share
// the graph content (version 0, no writes), so any divergence — scores,
// ordering, errors, versions — is a planner bug.
func TestBatchPlanDifferential(t *testing.T) {
	planned := New(store.New(testGraph()), nil)
	naive := New(store.New(testGraph()), nil, func(c *Config) { c.WorkloadPlanning = false })

	// Directed adversarial workload first: disjunction branches that
	// collapse only after canonicalization change counts if the planner
	// canonicalizes them (the inexactness fallback's regression case) —
	// the random generator below rarely produces this shape.
	collapse := BatchRequest{Queries: []SearchRequest{
		{Pattern: "(by + cites).by- + (cites + by).by-", Query: "p1", Alg: "relsim"},
		{Pattern: "(by + cites).by-", Query: "p1", Alg: "relsim"},
		{Pattern: "(by.by- + cites) + (cites + by.by-)", Query: "p1", Type: "paper"},
	}}

	const workloads = 500
	rng := rand.New(rand.NewSource(97))
	for w := 0; w < workloads; w++ {
		req := randWorkload(rng)
		if w == 0 {
			req = collapse
		}
		codeP, bodyP := doJSON(t, planned, "/batch", req)
		codeN, bodyN := doJSON(t, naive, "/batch", req)
		if codeP != http.StatusOK || codeN != http.StatusOK {
			t.Fatalf("workload %d: status plan=%d naive=%d", w, codeP, codeN)
		}
		if !bytes.Equal(bodyP, bodyN) {
			t.Fatalf("workload %d: plan-on and plan-off diverge\nrequest: %+v\nplan:  %s\nnaive: %s",
				w, req, bodyP, bodyN)
		}
	}
	if got := planned.Stats().Workload.PlannedBatches; got != workloads {
		t.Errorf("planned batches = %d, want %d", got, workloads)
	}
	if got := naive.Stats().Workload.PlannedBatches; got != 0 {
		t.Errorf("plan-off server planned %d batches, want 0", got)
	}
}

// TestBatchPlanConsistentUnderConcurrentWrites extends the MVCC /batch
// consistency test to the planner (run under -race): while writers
// flip edges, every result of one batch must carry the batch's single
// pinned version, exact duplicates must agree — and so must queries
// whose patterns differ only in disjunction branch order, since the
// planner collapses them onto one canonical materialization.
func TestBatchPlanConsistentUnderConcurrentWrites(t *testing.T) {
	_, ts := newTestServer(t)
	const rounds = 20

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var mut MutationResponse
			add := MutationRequest{Add: []EdgeSpec{{From: "p3", Label: "by", To: "a1"}}}
			post(t, ts, "/graph/edges", add, &mut)
			post(t, ts, "/graph/edges", MutationRequest{Remove: add.Add}, &mut)
		}
	}()

	// Queries 0/1 are alt-permuted renderings of one canonical pattern;
	// 2/3 are exact duplicates of 0.
	q := SearchRequest{Pattern: "by.by- + cites", Query: "p1", Type: "paper"}
	qPerm := q
	qPerm.Pattern = "cites + by.by-"
	req := BatchRequest{Workers: 4, Queries: []SearchRequest{q, qPerm, q, q}}
	for round := 0; round < rounds; round++ {
		var resp BatchResponse
		if code := post(t, ts, "/batch", req, &resp); code != http.StatusOK {
			t.Fatalf("round %d: status %d", round, code)
		}
		for i, res := range resp.Results {
			if res.Error != "" {
				t.Fatalf("round %d result %d: %s", round, i, res.Error)
			}
			if res.Version != resp.Version {
				t.Fatalf("round %d result %d: version %d != batch version %d",
					round, i, res.Version, resp.Version)
			}
			if !reflect.DeepEqual(res.Results, resp.Results[0].Results) {
				t.Fatalf("round %d: result %d disagrees with result 0 (%q vs %q):\n%+v\n%+v",
					round, i, req.Queries[i].Pattern, req.Queries[0].Pattern,
					res.Results, resp.Results[0].Results)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestBatchPlanTimeout504NoLeakedPins: a deadline that expires during
// the materialization schedule answers 504, counts as a timeout, and
// releases the request's pinned snapshot.
func TestBatchPlanTimeout504NoLeakedPins(t *testing.T) {
	srv := New(store.New(testGraph()), nil, WithTimeout(time.Nanosecond))
	req := BatchRequest{Queries: []SearchRequest{
		{Pattern: "by.by-", Query: "p1", Type: "paper"},
		{Pattern: "cites + by.by-", Query: "p1", Alg: "relsim"},
	}}
	code, body := doJSON(t, srv, "/batch", req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", code, body)
	}
	if got := srv.Stats().Requests["timeouts"]; got != 1 {
		t.Errorf("timeouts counter = %d, want 1", got)
	}
	// The handler's deferred Release runs as ServeHTTP returns, which
	// doJSON has already waited for.
	if got := srv.st.PinStats().Readers; got != 0 {
		t.Errorf("leaked %d pinned readers after plan-phase timeout", got)
	}
	// The deadline never lands in the cache: a fresh generous request
	// completes and reuses whatever the aborted schedule materialized.
	code, body = doJSON(t, srv, "/batch?timeout_ms=60000", req)
	if code != http.StatusOK {
		t.Fatalf("retry status = %d (%s)", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Errorf("retry result %d: %s", i, res.Error)
		}
	}
}

// TestWorkloadStatsReported: /stats surfaces what planning found —
// batches planned, subexpression dedup, products saved by sharing, and
// products actually materialized.
func TestWorkloadStatsReported(t *testing.T) {
	_, ts := newTestServer(t)
	req := BatchRequest{Queries: []SearchRequest{
		{Pattern: "by.by- + cites", Query: "p1", Alg: "relsim"},
		{Pattern: "cites + by.by-", Query: "p2", Alg: "relsim"},
	}}
	var resp BatchResponse
	if code := post(t, ts, "/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var stats StatsResponse
	get(t, ts, "/stats", &stats)
	wl := stats.Workload
	if !wl.Enabled {
		t.Error("workload planning not enabled by default")
	}
	if wl.PlannedBatches != 1 {
		t.Errorf("planned_batches = %d, want 1", wl.PlannedBatches)
	}
	// The two patterns are one canonical DAG: everything the second
	// pattern needs is shared with the first.
	if wl.SubpatternsDeduped == 0 {
		t.Error("subpatterns_deduped = 0, want sharing across the alt permutations")
	}
	if wl.ProductsSaved == 0 {
		t.Error("products_saved = 0, want the duplicated by.by- product saved")
	}
	if wl.ProductsMaterialized == 0 {
		t.Error("products_materialized = 0, want at least the by.by- product")
	}
}
