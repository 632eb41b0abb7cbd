package server

import (
	"net/http"
	"testing"

	"relsim/internal/admission"
	"relsim/internal/eval"
	"relsim/internal/rre"
	"relsim/internal/store"
)

// TestSearchAnnotateWitness checks the /search annotation contract on
// the shared bibliographic fixture: under "by.by-" from p1, p2 (two
// shared authors) must carry count 2 and a one-node derivation prefix
// through the shortlex-minimal author a1.
func TestSearchAnnotateWitness(t *testing.T) {
	_, ts := newTestServer(t)
	var resp SearchResponse
	code := post(t, ts, "/search", SearchRequest{
		Pattern: "by.by-", Query: "p1", Type: "paper", Annotate: AnnotateWitness,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Annotate != AnnotateWitness {
		t.Fatalf("response annotate = %q", resp.Annotate)
	}
	if len(resp.Results) == 0 || resp.Results[0].Name != "p2" {
		t.Fatalf("top answer = %+v, want p2 first", resp.Results)
	}
	w := resp.Results[0].Witness
	if w == nil {
		t.Fatal("top answer carries no witness annotation")
	}
	if w.Count != 2 {
		t.Errorf("witness count = %d, want 2 (two shared authors)", w.Count)
	}
	if w.PathNodes != 1 || len(w.Steps) != 1 || w.Steps[0].Name != "a1" {
		t.Errorf("witness derivation = %+v, want one step through a1", w)
	}
	if w.Truncated {
		t.Error("one-step derivation reported as truncated")
	}
}

// TestBatchAnnotateQueryParam checks that ?annotate=witness on /batch
// is the default for queries that do not choose their own.
func TestBatchAnnotateQueryParam(t *testing.T) {
	_, ts := newTestServer(t)
	var resp BatchResponse
	code := post(t, ts, "/batch?annotate=witness", BatchRequest{Queries: []SearchRequest{
		{Pattern: "by.by-", Query: "p1", Type: "paper"},
	}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) != 1 || resp.Results[0].SearchResponse == nil {
		t.Fatalf("results = %+v", resp.Results)
	}
	r := resp.Results[0]
	if r.Error != "" {
		t.Fatalf("query error: %s", r.Error)
	}
	if len(r.Results) == 0 || r.Results[0].Witness == nil {
		t.Fatalf("batch results carry no witness: %+v", r.Results)
	}
}

// TestWarmExplainProjectionZeroProducts is the acceptance property of
// the tentpole: once an annotated request has materialized the witness
// matrix, /explain?annotate=witness is a pure projection — the
// server-wide product counter (fed by the evaluator mul hook) must not
// move, and the projected count and score must equal the legacy
// instance-enumeration answer.
func TestWarmExplainProjectionZeroProducts(t *testing.T) {
	srv, ts := newTestServer(t)

	// Prime: the annotated search materializes the integer ranking
	// matrices and the witness twin under its ring-tagged key.
	var sr SearchResponse
	if code := post(t, ts, "/search", SearchRequest{
		Pattern: "by.by-", Query: "p1", Type: "paper", Annotate: AnnotateWitness,
	}, &sr); code != http.StatusOK {
		t.Fatalf("prime status = %d", code)
	}
	if srv.Stats().Semiring.AnnotatedProducts == 0 {
		t.Fatal("annotated prime performed no annotated products — hook discriminator broken")
	}

	var legacy ExplainResponse
	if code := post(t, ts, "/explain", ExplainRequest{
		Pattern: "by.by-", From: "p1", To: "p2",
	}, &legacy); code != http.StatusOK {
		t.Fatalf("legacy explain status = %d", code)
	}

	before := srv.Stats().Workload.ProductsMaterialized
	var proj ExplainResponse
	if code := post(t, ts, "/explain?annotate=witness", ExplainRequest{
		Pattern: "by.by-", From: "p1", To: "p2",
	}, &proj); code != http.StatusOK {
		t.Fatalf("projection status = %d", code)
	}
	after := srv.Stats().Workload.ProductsMaterialized
	if after != before {
		t.Fatalf("warm projection materialized %d products, want 0", after-before)
	}

	if proj.Count != legacy.Count || proj.Score != legacy.Score {
		t.Fatalf("projection (count %d, score %v) diverges from legacy (count %d, score %v)",
			proj.Count, proj.Score, legacy.Count, legacy.Score)
	}
	if proj.Witness == nil || len(proj.Witness.Steps) != 1 || proj.Witness.Steps[0].Name != "a1" {
		t.Fatalf("projection witness = %+v, want one step through a1", proj.Witness)
	}
	if len(proj.Instances) != 0 {
		t.Errorf("projection enumerated %d instances, want none", len(proj.Instances))
	}

	sem := srv.Stats().Semiring
	if sem.ExplainProjections != 1 || sem.ExplainWarm != 1 || sem.ExplainLegacy != 1 {
		t.Errorf("semiring stats = %+v, want 1 projection (warm) and 1 legacy", sem)
	}
}

// TestAnnotatedCostCeiling is the admission table test: on every
// evaluation endpoint, a ceiling that admits the plain request must
// reject its annotated twin with 422 — annotation is priced at
// eval.EstimateProductsAnnotated, never smuggled in at integer cost.
func TestAnnotatedCostCeiling(t *testing.T) {
	const pat = "by.by-"
	p, err := rre.Parse(pat)
	if err != nil {
		t.Fatal(err)
	}
	base := eval.EstimateProducts([]*rre.Pattern{p})
	if base < 1 {
		t.Fatalf("EstimateProducts(%q) = %d, want >= 1", pat, base)
	}
	planned := eval.PlanWorkload([]*rre.Pattern{p}).EstimatedProducts()

	// Alg "relsim" scores the pattern as given (no Algorithm-1
	// expansion), so the integer cost is exactly base on each endpoint.
	q := SearchRequest{Pattern: pat, Query: "p1", Type: "paper", Alg: "relsim"}
	aq := q
	aq.Annotate = AnnotateWitness

	cases := []struct {
		name    string
		maxCost int
		path    string
		plain   any
		annot   any
	}{
		{"search", base, "/search", q, aq},
		{"batch", planned, "/batch",
			BatchRequest{Queries: []SearchRequest{q}},
			BatchRequest{Queries: []SearchRequest{aq}}},
		{"explain", base, "/explain",
			ExplainRequest{Pattern: pat, From: "p1", To: "p2"},
			ExplainRequest{Pattern: pat, From: "p1", To: "p2", Annotate: AnnotateWitness}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(store.New(testGraph()), nil, withAdmission(admission.Config{MaxCost: tc.maxCost}))
			ts := newHTTPServer(t, srv)
			if code := post(t, ts, tc.path, tc.plain, nil); code != http.StatusOK {
				t.Fatalf("plain request rejected: status %d (ceiling %d)", code, tc.maxCost)
			}
			var er errorResponse
			if code := post(t, ts, tc.path, tc.annot, &er); code != http.StatusUnprocessableEntity {
				t.Fatalf("annotated request status = %d, want 422 (ceiling %d)", code, tc.maxCost)
			} else if er.Code != "cost_ceiling" {
				t.Fatalf("error code = %q, want cost_ceiling", er.Code)
			}
		})
	}
}

// TestAnnotateDisabled checks the Config.Annotation off rejection and
// that invalid annotate values are a 400 on an enabled server.
func TestAnnotateDisabled(t *testing.T) {
	srv := New(store.New(testGraph()), nil, func(c *Config) { c.Annotation = false })
	ts := newHTTPServer(t, srv)
	var er errorResponse
	if code := post(t, ts, "/search", SearchRequest{
		Pattern: "by.by-", Query: "p1", Annotate: AnnotateWitness,
	}, &er); code != http.StatusBadRequest || er.Code != "annotation_disabled" {
		t.Fatalf("disabled search = status %d code %q, want 400 annotation_disabled", code, er.Code)
	}
	if code := post(t, ts, "/explain?annotate=witness", ExplainRequest{
		Pattern: "by.by-", From: "p1", To: "p2",
	}, &er); code != http.StatusBadRequest || er.Code != "annotation_disabled" {
		t.Fatalf("disabled explain = status %d code %q, want 400 annotation_disabled", code, er.Code)
	}

	_, enabled := newTestServer(t)
	if code := post(t, enabled, "/search", SearchRequest{
		Pattern: "by.by-", Query: "p1", Annotate: "bogus",
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid annotate value = status %d, want 400", code)
	}
}
