package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/store"
)

// overlapWorkload builds the 100-query overlap fixture over dblp-small:
// 30 base patterns — a three-branch disjunction block concatenated with
// two meta-path steps — sampled 100 times (so ~70% of the queries reuse
// an earlier base), each occurrence rendered with a random permutation
// of the disjunction branches. Every rendering is a distinct string the
// naive path materializes separately; canonicalization folds each base
// back onto one materialization.
func overlapWorkload(rng *rand.Rand) BatchRequest {
	steps := []string{"w", "w-", "p-in", "p-in-", "r-a", "r-a-"}
	const bases = 30
	type base struct{ branches, suffix []string }
	bs := make([]base, bases)
	for i := range bs {
		b := base{branches: make([]string, 3), suffix: make([]string, 2)}
		seen := map[string]bool{}
		for j := range b.branches {
			for {
				s := steps[rng.Intn(len(steps))]
				if !seen[s] {
					seen[s] = true
					b.branches[j] = s
					break
				}
			}
		}
		for j := range b.suffix {
			b.suffix[j] = steps[rng.Intn(len(steps))]
		}
		bs[i] = b
	}
	const queries = 100
	qs := make([]SearchRequest, queries)
	for i := range qs {
		b := bs[rng.Intn(bases)]
		perm := rng.Perm(len(b.branches))
		pat := "(" + b.branches[perm[0]]
		for _, k := range perm[1:] {
			pat += " + " + b.branches[k]
		}
		pat += ")." + b.suffix[0] + "." + b.suffix[1]
		qs[i] = SearchRequest{
			Pattern: pat,
			Query:   fmt.Sprintf("proc%d", rng.Intn(80)),
			Type:    "proc",
			Alg:     "relsim",
			Top:     5,
		}
	}
	return BatchRequest{Workers: 4, Queries: qs}
}

// runWorkloadCold stands up a fresh server in the given planning mode,
// posts the workload once against a cold cache, and returns the number
// of matrix products the batch materialized plus the /stats workload
// section.
func runWorkloadCold(tb testing.TB, plan bool, req BatchRequest) (uint64, WorkloadStats) {
	tb.Helper()
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(store.New(ds.Graph), ds.Schema, func(c *Config) { c.WorkloadPlanning = plan })
	code, body := doJSON(tb, srv, "/batch", req)
	if code != http.StatusOK {
		tb.Fatalf("plan=%v: status %d (%s)", plan, code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		tb.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			tb.Fatalf("plan=%v query %d: %s", plan, i, res.Error)
		}
	}
	st := srv.Stats().Workload
	return st.ProductsMaterialized, st
}

// TestWorkloadPlanDedupsOverlapFixture is the CI dedup guard: on the
// overlap fixture the planner must materialize at least 2x fewer matrix
// products than the naive path, and must report nonzero savings. The
// counts are deterministic (seeded fixture, no timing), so this is a
// hard assertion, not a flaky perf check.
func TestWorkloadPlanDedupsOverlapFixture(t *testing.T) {
	req := overlapWorkload(rand.New(rand.NewSource(73)))
	naiveProducts, _ := runWorkloadCold(t, false, req)
	planProducts, wl := runWorkloadCold(t, true, req)
	t.Logf("products: naive=%d plan=%d (%.2fx), deduped=%d saved=%d",
		naiveProducts, planProducts, float64(naiveProducts)/float64(planProducts),
		wl.SubpatternsDeduped, wl.ProductsSaved)
	if planProducts == 0 || naiveProducts == 0 {
		t.Fatalf("zero products measured (naive=%d plan=%d)", naiveProducts, planProducts)
	}
	if wl.SubpatternsDeduped == 0 || wl.ProductsSaved == 0 {
		t.Fatalf("dedup saved nothing on the overlap fixture: %+v", wl)
	}
	if float64(naiveProducts) < 2*float64(planProducts) {
		t.Errorf("plan materialized %d products vs naive %d: want >= 2x fewer", planProducts, naiveProducts)
	}
}

// BenchmarkBatchWorkload measures the 100-query ~70%-overlap workload
// with and without planning: cold-cache products materialized and batch
// latency per mode. With BENCH_WORKLOAD_OUT set it writes the JSON
// artifact (BENCH_workload.json) the CI workload smoke step uploads,
// and it fails outright if dedup saves zero products — the bench is the
// acceptance gate, not just a stopwatch.
func BenchmarkBatchWorkload(b *testing.B) {
	req := overlapWorkload(rand.New(rand.NewSource(73)))
	results := map[string]any{
		"description": "100-query /batch workload over dblp-small, 30 canonical base patterns (~70% sub-pattern overlap), disjunction branches permuted per query. Products = matrix products materialized on a cold cache (mul-hook count); acceptance >= 2x fewer with planning.",
		"command":     "go test -run='^$' -bench=BenchmarkBatchWorkload -benchtime=1x ./internal/server/",
	}
	var naiveProducts, planProducts uint64
	for _, mode := range []struct {
		name string
		plan bool
	}{{"naive", false}, {"plan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			products, wl := runWorkloadCold(b, mode.plan, req)
			if mode.plan {
				planProducts = products
			} else {
				naiveProducts = products
			}
			b.ReportMetric(float64(products), "products")

			// Steady-state latency over the warm cache (the planner pays a
			// small canonicalization overhead here; its win is the cold
			// materialization above, which recurs at every new graph
			// version a write publishes).
			ds, err := datasets.ByName("dblp-small")
			if err != nil {
				b.Fatal(err)
			}
			srv := New(store.New(ds.Graph), ds.Schema, func(c *Config) { c.WorkloadPlanning = mode.plan })
			doJSON(b, srv, "/batch", req) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code, body := doJSON(b, srv, "/batch", req); code != http.StatusOK {
					b.Fatalf("status %d (%s)", code, body)
				}
			}
			b.StopTimer()
			results[mode.name] = map[string]any{
				"products_materialized_cold": products,
				"subpatterns_deduped":        wl.SubpatternsDeduped,
				"products_saved":             wl.ProductsSaved,
				"warm_batch_ns_per_op":       b.Elapsed().Nanoseconds() / int64(b.N),
			}
		})
	}
	if planProducts >= naiveProducts {
		b.Fatalf("workload planning saved no products: plan=%d naive=%d", planProducts, naiveProducts)
	}
	results["products_ratio_naive_over_plan"] = float64(naiveProducts) / float64(planProducts)
	if out := os.Getenv("BENCH_WORKLOAD_OUT"); out != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
