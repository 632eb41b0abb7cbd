package server

// The instrumentation-overhead guard: the telemetry layer (middleware,
// per-endpoint counters and histograms, phase tracing, slow-query
// capture, access log) must cost <= 5% of warm /batch latency on the
// overlap workload. Both servers run in one process and the off/on
// measurements are interleaved within a single loop so clock-frequency
// and load drift over the run cancels out instead of biasing one mode.
// The acceptance gate hides behind BENCH_OBS_GATE so the 1x CI smoke
// run cannot flake on timing noise — the gated job runs enough
// iterations for the medians to be stable.

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"testing"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/store"
)

// newObsBenchServer builds the bench server over dblp-small. The
// instrumented variant carries the full production observability
// config: middleware + registry, slow-query capture (threshold high
// enough that the warm workload never trips it, which is the common
// production case), and a JSON access log to io.Discard.
func newObsBenchServer(tb testing.TB, instrument bool) *Server {
	tb.Helper()
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		tb.Fatal(err)
	}
	opts := []Option{func(c *Config) { c.Instrumentation = instrument }}
	if instrument {
		opts = append(opts,
			WithSlowQuery(250*time.Millisecond),
			WithAccessLog(io.Discard, true),
		)
	}
	return New(store.New(ds.Graph), ds.Schema, opts...)
}

func medianDuration(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// BenchmarkObservabilityOverhead measures warm /batch latency with
// instrumentation off (the baseline: no middleware, no registry) and on
// (full production config), reporting the median per mode and the
// overhead percentage. With BENCH_OBS_OUT set it writes the BENCH_obs
// JSON artifact; with BENCH_OBS_GATE set it fails when the median
// overhead exceeds 5%.
func BenchmarkObservabilityOverhead(b *testing.B) {
	req := overlapWorkload(rand.New(rand.NewSource(73)))
	srvOff := newObsBenchServer(b, false)
	srvOn := newObsBenchServer(b, true)
	// Warm both servers: materialize the workload's matrices so the
	// measured iterations exercise the steady-state scoring path.
	for _, srv := range []*Server{srvOff, srvOn} {
		if code, body := doJSON(b, srv, "/batch", req); code != http.StatusOK {
			b.Fatalf("warmup status %d (%s)", code, body)
		}
	}
	timed := func(srv *Server) time.Duration {
		start := time.Now()
		if code, body := doJSON(b, srv, "/batch", req); code != http.StatusOK {
			b.Fatalf("status %d (%s)", code, body)
		}
		return time.Since(start)
	}
	offDurs := make([]time.Duration, 0, b.N)
	onDurs := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate which mode goes first so neither systematically
		// benefits from running second within an iteration.
		if i%2 == 0 {
			offDurs = append(offDurs, timed(srvOff))
			onDurs = append(onDurs, timed(srvOn))
		} else {
			onDurs = append(onDurs, timed(srvOn))
			offDurs = append(offDurs, timed(srvOff))
		}
	}
	b.StopTimer()

	off, on := medianDuration(offDurs), medianDuration(onDurs)
	if off == 0 {
		b.Fatal("zero baseline median")
	}
	overheadPct := (float64(on) - float64(off)) / float64(off) * 100
	b.ReportMetric(float64(off.Nanoseconds()), "off_median_ns/op")
	b.ReportMetric(float64(on.Nanoseconds()), "on_median_ns/op")
	b.Logf("warm /batch median: off=%v on=%v overhead=%.2f%%", off, on, overheadPct)

	if out := os.Getenv("BENCH_OBS_OUT"); out != "" {
		results := map[string]any{
			"description":          "Instrumentation overhead on the warm 100-query /batch overlap workload (dblp-small): median latency with the telemetry layer off (no middleware, no registry) vs on (middleware, per-endpoint metrics, phase tracing, slow-query capture, JSON access log to io.Discard), measured interleaved in one process. Acceptance: overhead <= 5%.",
			"command":              "BENCH_OBS_GATE=1 go test -run='^$' -bench=BenchmarkObservabilityOverhead -benchtime=100x ./internal/server/",
			"off_ns_per_op_median": off.Nanoseconds(),
			"on_ns_per_op_median":  on.Nanoseconds(),
			"overhead_pct":         overheadPct,
			"iterations":           b.N,
		}
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if os.Getenv("BENCH_OBS_GATE") != "" && overheadPct > 5 {
		b.Fatalf("instrumentation overhead %.2f%% exceeds the 5%% budget (off=%v on=%v)", overheadPct, off, on)
	}
}
