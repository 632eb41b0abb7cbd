package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"testing"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/store"
)

// deltaReadWorkload is the hot-pattern read fixture for the write-heavy
// bench: meta-path chains over dblp-small that all mention the label
// ("w") every commit touches — so the evict baseline recomputes them
// after each write while maintenance patches them forward — plus one
// untouched control pattern both modes carry across versions for free.
func deltaReadWorkload() BatchRequest {
	return BatchRequest{Workers: 4, Queries: []SearchRequest{
		{Pattern: "w.w-", Query: "author5", Type: "author", Alg: "relsim", Top: 5},
		{Pattern: "w.p-in", Query: "author5", Type: "author", Alg: "relsim", Top: 5},
		{Pattern: "(w.p-in).(w.p-in)-", Query: "author5", Type: "author", Alg: "relsim", Top: 5},
		{Pattern: "w.r-a", Query: "author9", Type: "author", Alg: "relsim", Top: 5},
		{Pattern: "w- + r-a.r-a-", Query: "paper10", Type: "paper", Alg: "relsim", Top: 5},
		{Pattern: "p-in-.p-in", Query: "paper10", Type: "paper", Alg: "relsim", Top: 5},
	}}
}

// deltaBenchRounds is the write/read interleaving depth: enough rounds
// for stable medians at -benchtime=1x, few enough for the CI smoke run.
const deltaBenchRounds = 30

// percentile50 returns the median of a duration sample.
func percentile50(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// BenchmarkDeltaMaintenance is the write-heavy acceptance gate for
// incremental cache maintenance. Two servers over dblp-small — delta
// maintenance on vs. the evict-on-write baseline — run the same
// interleaving in lockstep: prime the hot patterns, then alternate
// add/remove commits touching label "w" with warm reads of the pattern
// set. Per mode it reports steady-state commit cost and post-commit
// warm-read p50, and it fails outright if the two modes' responses ever
// diverge or if maintenance saves zero recomputes (cache misses during
// the write phase are deterministic, so that is a hard assertion). With
// BENCH_DELTA_OUT set it writes the BENCH_delta.json artifact CI
// uploads.
func BenchmarkDeltaMaintenance(b *testing.B) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		b.Fatal(err)
	}
	maintained := New(store.New(ds.Graph), ds.Schema)
	evicting := New(store.New(datasets.DBLP(datasets.SmallDBLP()).Graph), ds.Schema, func(c *Config) { c.DeltaMaintenance = false })
	read := deltaReadWorkload()
	flip := []MutationRequest{
		{Add: []EdgeSpec{{From: "author0", Label: "w", To: "paper0"}}},
		{Remove: []EdgeSpec{{From: "author0", Label: "w", To: "paper0"}}},
	}

	type mode struct {
		srv       *Server
		commits   []time.Duration
		reads     []time.Duration
		missBase  uint64
		missTotal uint64
	}
	modes := map[string]*mode{
		"maintained": {srv: maintained},
		"evicting":   {srv: evicting},
	}
	run := func(m *mode, path string, req any) []byte {
		start := time.Now()
		code, body := doJSON(b, m.srv, path, req)
		elapsed := time.Since(start)
		if code != http.StatusOK {
			b.Fatalf("%s: status %d (%s)", path, code, body)
		}
		if path == "/batch" {
			m.reads = append(m.reads, elapsed)
		} else {
			m.commits = append(m.commits, elapsed)
		}
		return body
	}

	// Prime both caches, then count only write-phase misses: on the hot
	// set these are exactly the recomputes maintenance is meant to save.
	for _, m := range modes {
		doJSON(b, m.srv, "/batch", read)
		m.missBase = m.srv.Cache().Stats().Misses
		m.reads, m.commits = nil, nil
	}

	for round := 0; round < deltaBenchRounds; round++ {
		mreq := flip[round%len(flip)]
		run(modes["maintained"], "/graph/edges", mreq)
		run(modes["evicting"], "/graph/edges", mreq)
		bodyM := run(modes["maintained"], "/batch", read)
		bodyE := run(modes["evicting"], "/batch", read)
		if !bytes.Equal(bodyM, bodyE) {
			b.Fatalf("round %d: maintained and evicting responses diverge\nmaintained: %s\nevicting:   %s",
				round, bodyM, bodyE)
		}
	}
	for _, m := range modes {
		m.missTotal = m.srv.Cache().Stats().Misses - m.missBase
	}

	mm, em := modes["maintained"], modes["evicting"]
	saved := int64(em.missTotal) - int64(mm.missTotal)
	dsStats := maintained.Stats().Delta
	b.Logf("write-phase misses: maintained=%d evicting=%d (saved %d); maintained %d patterns over %d commits, %d fallbacks",
		mm.missTotal, em.missTotal, saved, dsStats.Maintained, dsStats.Commits, dsStats.Fallbacks)
	if saved <= 0 {
		b.Fatalf("maintenance saved zero recomputes: maintained misses %d >= evicting misses %d",
			mm.missTotal, em.missTotal)
	}
	if dsStats.Maintained == 0 {
		b.Fatal("maintenance patched zero patterns forward on the write-heavy fixture")
	}
	if off := evicting.Stats().Delta; off.Commits != 0 {
		b.Fatalf("evict baseline ran maintenance on %d commits", off.Commits)
	}

	report := func(m *mode) map[string]any {
		return map[string]any{
			"commit_ns_p50":      percentile50(m.commits).Nanoseconds(),
			"warm_read_ns_p50":   percentile50(m.reads).Nanoseconds(),
			"write_phase_misses": m.missTotal,
			"delta":              m.srv.Stats().Delta,
			"rounds":             deltaBenchRounds,
			"queries_per_read":   len(read.Queries),
			"touched_per_commit": len(read.Queries) - 1,
		}
	}
	readP50M, readP50E := percentile50(mm.reads), percentile50(em.reads)
	b.ReportMetric(float64(saved), "recomputes_saved")
	b.ReportMetric(float64(readP50M.Nanoseconds()), "warm_read_ns_p50")
	results := map[string]any{
		"description":                    "Write-heavy dblp-small fixture: alternating add/remove commits on label w interleaved with warm /batch reads of 6 hot patterns (5 touched per commit, 1 untouched control). Maintained mode patches stale cached matrices forward with delta products; evicting mode recomputes them on the next read. Write-phase misses are deterministic; the bench fails if maintenance saves none or the modes' responses diverge.",
		"command":                        "BENCH_DELTA_OUT=$PWD/BENCH_delta.json go test -run='^$' -bench=BenchmarkDeltaMaintenance -benchtime=1x ./internal/server/",
		"maintained":                     report(mm),
		"evicting":                       report(em),
		"recomputes_saved":               saved,
		"warm_read_p50_evict_over_maint": float64(readP50E) / float64(readP50M),
	}
	if out := os.Getenv("BENCH_DELTA_OUT"); out != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
