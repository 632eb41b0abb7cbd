package server

// The overload-behavior guard: with the admission envelope configured,
// a server driven at 4x its concurrency capacity must (a) keep the
// latency of the requests it admits within 2x of the uncontended
// latency — admitted work is protected from the overload around it —
// and (b) shed the excess in O(1), without the shed requests touching a
// snapshot or an evaluator. The acceptance gate hides behind
// BENCH_ADMISSION_GATE so the 1x CI smoke run cannot flake on timing
// noise; the gated job runs enough iterations for the percentiles to be
// stable.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"relsim/internal/admission"
	"relsim/internal/datasets"
	"relsim/internal/store"
)

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// BenchmarkAdmissionOverload measures warm /batch latency on
// dblp-small in two regimes: uncontended (one client against an idle
// server) and 4x overload (4 clients against MaxInFlight=1,
// QueueDepth=0). Overload responses split into admitted (200) and shed
// (503) populations. With BENCH_ADMISSION_OUT set it writes the
// BENCH_admission JSON artifact; with BENCH_ADMISSION_GATE set it fails
// when admitted p99 exceeds 2x the uncontended p99 or shed p99 exceeds
// 25ms.
func BenchmarkAdmissionOverload(b *testing.B) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		b.Fatal(err)
	}
	// MaxInFlight=1: admitted work owns the machine — the bench boxes
	// can be single-core, where any in-gate concurrency measures CPU
	// contention, not admission behavior. 4 clients = 4x capacity.
	const maxInFlight = 1
	const overloadClients = 4 * maxInFlight
	srv := New(store.New(ds.Graph), ds.Schema,
		withAdmission(admission.Config{MaxInFlight: maxInFlight}),
	)
	// A 25-query slice of the overlap workload: enough work per request
	// (~1ms warm) that overload actually builds inside the gate, small
	// enough that the bench stays quick.
	full := overlapWorkload(rand.New(rand.NewSource(73)))
	req := BatchRequest{Workers: 1, Queries: full.Queries[:25]}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}

	// Warm every commuting matrix so measured requests run the
	// steady-state scoring path.
	if code, out := doJSON(b, srv, "/batch", full); code != http.StatusOK {
		b.Fatalf("warmup status %d (%s)", code, out)
	}

	timed := func() (int, time.Duration) {
		r := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(w, r)
		return w.Code, time.Since(start)
	}

	b.ResetTimer()
	uncontended := make([]time.Duration, 0, b.N)
	for i := 0; i < b.N; i++ {
		code, d := timed()
		if code != http.StatusOK {
			b.Fatalf("uncontended request answered %d", code)
		}
		uncontended = append(uncontended, d)
	}

	var mu sync.Mutex
	var admitted, shed []time.Duration
	var wg sync.WaitGroup
	for c := 0; c < overloadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			adm := make([]time.Duration, 0, b.N)
			sh := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				code, d := timed()
				switch code {
				case http.StatusOK:
					adm = append(adm, d)
				case http.StatusServiceUnavailable:
					sh = append(sh, d)
					// Honor the Retry-After discipline in miniature: a
					// shed client backs off instead of busy-spinning the
					// box it just learned is saturated. The measured shed
					// latency is the request alone, not this sleep.
					time.Sleep(200 * time.Microsecond)
				default:
					b.Errorf("overload request answered %d", code)
					return
				}
			}
			mu.Lock()
			admitted = append(admitted, adm...)
			shed = append(shed, sh...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	b.StopTimer()

	if len(admitted) == 0 || len(shed) == 0 {
		// The framework's 1-iteration probe run cannot sustain overload;
		// only a real multi-iteration run must see both populations.
		if b.N > 1 {
			b.Fatalf("overload phase admitted=%d shed=%d, want both nonzero (no overload exercised)", len(admitted), len(shed))
		}
		return
	}
	p99Unc := percentile(uncontended, 0.99)
	p99Adm := percentile(admitted, 0.99)
	p99Shed := percentile(shed, 0.99)
	ratio := float64(p99Adm) / float64(p99Unc)
	b.ReportMetric(float64(p99Unc.Nanoseconds()), "uncontended_p99_ns")
	b.ReportMetric(float64(p99Adm.Nanoseconds()), "admitted_p99_ns")
	b.ReportMetric(float64(p99Shed.Nanoseconds()), "shed_p99_ns")
	b.Logf("p99: uncontended=%v admitted=%v (%.2fx) shed=%v; admitted=%d shed=%d",
		p99Unc, p99Adm, ratio, p99Shed, len(admitted), len(shed))

	if out := os.Getenv("BENCH_ADMISSION_OUT"); out != "" {
		results := map[string]any{
			"description":               "Admission-controlled overload on warm 25-query /batch (dblp-small overlap workload): one client uncontended vs 4 clients against MaxInFlight=1/QueueDepth=0 (4x capacity). Admitted = 200s under overload, shed = 503s. Acceptance: admitted p99 <= 2x uncontended p99 (admitted work is protected), shed p99 <= 25ms (shedding is O(1), pre-pin).",
			"command":                   "BENCH_ADMISSION_GATE=1 go test -run='^$' -bench=BenchmarkAdmissionOverload -benchtime=1000x ./internal/server/",
			"uncontended_p99_ns":        p99Unc.Nanoseconds(),
			"admitted_p99_ns":           p99Adm.Nanoseconds(),
			"shed_p99_ns":               p99Shed.Nanoseconds(),
			"admitted_over_uncontended": ratio,
			"admitted_count":            len(admitted),
			"shed_count":                len(shed),
			"overload_clients":          overloadClients,
			"max_inflight":              maxInFlight,
			"iterations":                b.N,
		}
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if os.Getenv("BENCH_ADMISSION_GATE") != "" {
		if ratio > 2 {
			b.Fatalf("admitted p99 %v is %.2fx the uncontended p99 %v (budget 2x): admitted work is not protected from overload", p99Adm, ratio, p99Unc)
		}
		if p99Shed > 25*time.Millisecond {
			b.Fatalf("shed p99 %v exceeds 25ms: shedding is not O(1)", p99Shed)
		}
	}
}
