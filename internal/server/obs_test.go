package server

// The observability surface: /metrics exposition correctness (lint +
// required series), status-based error/timeout accounting across every
// handler error path, /stats ↔ /metrics parity (both read the same
// registry), request ids + Server-Timing, the slow-query log, the
// structured access log, and the pprof mount.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"relsim/internal/replica"
	"relsim/internal/store"
	"relsim/internal/telemetry"
)

// getRaw drives a GET through the full middleware stack and returns
// status, headers, and body.
func getRaw(t testing.TB, srv *Server, path string) (int, http.Header, []byte) {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w.Code, w.Result().Header, w.Body.Bytes()
}

// scrape fetches and lints /metrics, returning the family set and body.
func scrape(t testing.TB, srv *Server) (map[string]bool, []byte) {
	t.Helper()
	code, _, body := getRaw(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	fams, err := telemetry.Lint(body)
	if err != nil {
		t.Fatalf("/metrics lint: %v\n%s", err, body)
	}
	return fams, body
}

// seriesValue extracts one sample value from an exposition by its full
// series prefix, e.g. `relsim_http_requests_total{endpoint="search"}`.
func seriesValue(t testing.TB, body []byte, prefix string) float64 {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", prefix, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition", prefix)
	return 0
}

// TestMetricsExposition locks in the scrape contract on a leader: the
// body lints as Prometheus text format and every required family is
// present — per-endpoint HTTP series (pre-created, so they exist before
// traffic), engine series, and store series.
func TestMetricsExposition(t *testing.T) {
	srv, ts := newTestServer(t)
	// Traffic so event-driven series have observations too.
	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1"}, &SearchResponse{})
	post(t, ts, "/batch", BatchRequest{Queries: []SearchRequest{
		{Pattern: "by.by-", Query: "p1"}, {Pattern: "cites", Query: "p1"},
	}}, &BatchResponse{})
	post(t, ts, "/explain", ExplainRequest{Pattern: "by.by-", From: "p1", To: "p2"}, &ExplainResponse{})
	var mut MutationResponse
	post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: "cites", To: "p2"}}}, &mut)

	fams, body := scrape(t, srv)
	required := []string{
		"relsim_http_requests_total",
		"relsim_http_request_errors_total",
		"relsim_http_request_timeouts_total",
		"relsim_http_request_seconds",
		"relsim_http_request_phase_seconds",
		"relsim_http_in_flight_requests",
		"relsim_batch_query_errors_total",
		"relsim_eval_cache_hits_total",
		"relsim_eval_cache_misses_total",
		"relsim_eval_cache_entries",
		"relsim_eval_products_total",
		"relsim_workload_planned_batches_total",
		"relsim_workload_subpatterns_deduped_total",
		"relsim_expand_memo_hits_total",
		"relsim_store_commit_seconds",
		"relsim_store_commits_total",
		"relsim_store_checkpoint_seconds",
		"relsim_store_version",
		"relsim_store_pinned_readers",
		"relsim_store_log_records",
		"relsim_uptime_seconds",
	}
	for _, name := range required {
		if !fams[name] {
			t.Errorf("required family %s missing from /metrics", name)
		}
	}
	// Latency histograms exist for every endpoint, hit or not.
	for _, ep := range endpoints {
		prefix := fmt.Sprintf(`relsim_http_request_seconds_count{endpoint=%q}`, ep)
		if v := seriesValue(t, body, prefix); ep == "search" && v != 1 {
			t.Errorf("search latency count = %v, want 1", v)
		}
	}
	if v := seriesValue(t, body, `relsim_store_commits_total`); v != 1 {
		t.Errorf("store commits = %v, want 1 (one mutation batch)", v)
	}
	if v := seriesValue(t, body, `relsim_store_version`); v != 1 {
		t.Errorf("store version gauge = %v, want 1 (one commit on a fresh store)", v)
	}
}

// TestMetricsExpositionDurable adds the WAL families on a durable
// store.
func TestMetricsExpositionDurable(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.WithSeed(testGraph()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var mut MutationResponse
	post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: "cites", To: "p2"}}}, &mut)

	fams, body := scrape(t, srv)
	for _, name := range []string{
		"relsim_wal_fsync_seconds",
		"relsim_wal_appended_bytes_total",
		"relsim_wal_records_total",
		"relsim_wal_fsyncs_total",
		"relsim_wal_segments",
		"relsim_wal_active_segment_bytes",
		"relsim_store_checkpoints_total",
		"relsim_store_checkpoint_errors_total",
		"relsim_store_last_checkpoint_version",
	} {
		if !fams[name] {
			t.Errorf("required durable family %s missing from /metrics", name)
		}
	}
	if v := seriesValue(t, body, "relsim_wal_fsync_seconds_count"); v < 1 {
		t.Errorf("wal fsync count = %v, want >= 1 (SyncAlways mutation)", v)
	}
	if v := seriesValue(t, body, "relsim_wal_appended_bytes_total"); v <= 0 {
		t.Errorf("wal appended bytes = %v, want > 0", v)
	}
}

// TestFollowerMetrics: a real replica.Follower joins the registry via
// the optional Instrument interface and exposes lag gauges.
func TestFollowerMetrics(t *testing.T) {
	leader := New(store.New(testGraph()), nil)
	lts := httptest.NewServer(leader)
	defer lts.Close()

	fst := store.New(nil)
	defer fst.Close()
	f := replica.New(fst, lts.URL, replica.Options{})
	if err := f.Start(t.Context()); err != nil {
		t.Fatal(err)
	}
	srv := New(fst, nil, func(c *Config) { c.Follower, c.MaxLag, c.MaxLagAge = f, 10, time.Minute })
	fams, body := scrape(t, srv)
	for _, name := range []string{
		"relsim_replica_lag_versions",
		"relsim_replica_lag_seconds",
		"relsim_replica_synced",
		"relsim_replica_bootstraps_total",
		"relsim_replica_updates_applied_total",
	} {
		if !fams[name] {
			t.Errorf("required replica family %s missing from /metrics", name)
		}
	}
	if v := seriesValue(t, body, "relsim_replica_synced"); v != 1 {
		t.Errorf("replica synced gauge = %v, want 1 after Start", v)
	}
	if v := seriesValue(t, body, "relsim_replica_bootstraps_total"); v != 1 {
		t.Errorf("replica bootstraps = %v, want 1", v)
	}
}

// TestErrorAndTimeoutAccounting is the satellite-1 regression table:
// every handler error path must land in the errors counter (and 504s in
// the timeouts counter) — enforced structurally by the status-counting
// middleware, pinned here so a future bypass (a handler writing through
// a raw writer, a new endpoint skipping the mux) fails loudly.
func TestErrorAndTimeoutAccounting(t *testing.T) {
	cases := []struct {
		name         string
		opts         []Option
		drive        func(t *testing.T, ts *httptest.Server)
		wantErrors   uint64
		wantTimeouts uint64
	}{
		{
			name: "search bad json",
			drive: func(t *testing.T, ts *httptest.Server) {
				resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader("{"))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", resp.StatusCode)
				}
			},
			wantErrors: 1,
		},
		{
			name: "search unknown node",
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := post(t, ts, "/search", SearchRequest{Pattern: "by", Query: "ghost"}, &e); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "search invalid timeout_ms",
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := post(t, ts, "/search?timeout_ms=nope", SearchRequest{Pattern: "by", Query: "p1"}, &e); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "search unknown alg",
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := post(t, ts, "/search", SearchRequest{Pattern: "by", Query: "p1", Alg: "psychic"}, &e); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "search timeout",
			opts: []Option{WithTimeout(time.Nanosecond)},
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1"}, &e); code != http.StatusGatewayTimeout {
					t.Fatalf("status = %d, want 504", code)
				}
			},
			wantErrors:   1,
			wantTimeouts: 1,
		},
		{
			name: "explain bad pattern",
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := post(t, ts, "/explain", ExplainRequest{Pattern: "((", From: "p1", To: "p2"}, &e); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "explain unknown from node",
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := post(t, ts, "/explain", ExplainRequest{Pattern: "by", From: "ghost", To: "p2"}, &e); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "explain timeout",
			opts: []Option{WithTimeout(time.Nanosecond)},
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := post(t, ts, "/explain", ExplainRequest{Pattern: "by.by-", From: "p1", To: "p2"}, &e); code != http.StatusGatewayTimeout {
					t.Fatalf("status = %d, want 504", code)
				}
			},
			wantErrors:   1,
			wantTimeouts: 1,
		},
		{
			name: "mutate unknown node",
			drive: func(t *testing.T, ts *httptest.Server) {
				var mut MutationResponse
				if code := post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "ghost", Label: "by", To: "a1"}}}, &mut); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "follower mutate 403",
			opts: []Option{func(c *Config) {
				c.Follower = &fakeReplica{st: replica.Status{Leader: "http://leader:8080", SyncedOnce: true}}
			}},
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := post(t, ts, "/graph/edges", MutationRequest{}, &e); code != http.StatusForbidden {
					t.Fatalf("status = %d, want 403", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "log invalid since",
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := get(t, ts, "/log?since=banana", &e); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "log invalid max",
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := get(t, ts, "/log?max=0", &e); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "log since beyond live",
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := get(t, ts, "/log?since=999", &e); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
				if e.Code != "since_beyond_live" {
					t.Fatalf("code = %q", e.Code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "log timeout",
			opts: []Option{WithTimeout(time.Nanosecond)},
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := get(t, ts, "/log?since=0", &e); code != http.StatusGatewayTimeout {
					t.Fatalf("status = %d, want 504", code)
				}
			},
			wantErrors:   1,
			wantTimeouts: 1,
		},
		{
			name: "checkpoint invalid if_newer_than",
			drive: func(t *testing.T, ts *httptest.Server) {
				var e errorResponse
				if code := get(t, ts, "/checkpoint?if_newer_than=banana", &e); code != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400", code)
				}
			},
			wantErrors: 1,
		},
		{
			name: "mux 404",
			drive: func(t *testing.T, ts *httptest.Server) {
				resp, err := http.Get(ts.URL + "/no-such-route")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Fatalf("status = %d, want 404", resp.StatusCode)
				}
			},
			wantErrors: 1,
		},
		{
			name: "batch per-query errors",
			drive: func(t *testing.T, ts *httptest.Server) {
				var resp BatchResponse
				if code := post(t, ts, "/batch", BatchRequest{Queries: []SearchRequest{
					{Pattern: "by", Query: "ghost1"},
					{Pattern: "by", Query: "ghost2"},
					{Pattern: "by", Query: "p1"},
				}}, &resp); code != http.StatusOK {
					t.Fatalf("status = %d, want 200", code)
				}
			},
			wantErrors: 2, // two failing queries inside a 200
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(store.New(testGraph()), nil, tc.opts...)
			ts := httptest.NewServer(srv)
			defer ts.Close()
			tc.drive(t, ts)
			req := srv.Stats().Requests
			if req["errors"] != tc.wantErrors {
				t.Errorf("errors = %d, want %d", req["errors"], tc.wantErrors)
			}
			if req["timeouts"] != tc.wantTimeouts {
				t.Errorf("timeouts = %d, want %d", req["timeouts"], tc.wantTimeouts)
			}
		})
	}
}

// TestStatsMetricsParity: /stats request counters are read from the
// telemetry registry, so the two surfaces agree by construction. Drive
// mixed traffic, then compare /stats against a parsed /metrics scrape.
func TestStatsMetricsParity(t *testing.T) {
	srv, ts := newTestServer(t)
	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1"}, &SearchResponse{})
	post(t, ts, "/search", SearchRequest{Pattern: "by", Query: "ghost"}, &errorResponse{})
	post(t, ts, "/batch", BatchRequest{Queries: []SearchRequest{
		{Pattern: "by", Query: "p1"}, {Pattern: "by", Query: "ghost"},
	}}, &BatchResponse{})
	post(t, ts, "/explain", ExplainRequest{Pattern: "by.by-", From: "p1", To: "p2"}, &ExplainResponse{})
	var mut MutationResponse
	post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: "cites", To: "p2"}}}, &mut)

	stats := srv.Stats()
	_, body := scrape(t, srv)
	for ep, key := range map[string]string{
		"search": "search", "batch": "batch", "explain": "explain", "mutations": "mutations",
	} {
		got := seriesValue(t, body, fmt.Sprintf(`relsim_http_requests_total{endpoint=%q}`, ep))
		if uint64(got) != stats.Requests[key] {
			t.Errorf("%s: /metrics %v != /stats %d", ep, got, stats.Requests[key])
		}
	}
	// errors: per-endpoint sum + batch per-query errors == /stats total.
	var errSum float64
	for _, ep := range endpoints {
		errSum += seriesValue(t, body, fmt.Sprintf(`relsim_http_request_errors_total{endpoint=%q}`, ep))
	}
	errSum += seriesValue(t, body, "relsim_batch_query_errors_total")
	if uint64(errSum) != stats.Requests["errors"] {
		t.Errorf("errors: /metrics sum %v != /stats %d", errSum, stats.Requests["errors"])
	}
	// Engine counters: cache hits/misses come from the same CacheStats.
	if got := seriesValue(t, body, "relsim_eval_cache_hits_total"); uint64(got) < stats.Cache.Hits {
		t.Errorf("cache hits: /metrics %v < /stats %d", got, stats.Cache.Hits)
	}
	if got := seriesValue(t, body, "relsim_eval_products_total"); uint64(got) != stats.Workload.ProductsMaterialized {
		t.Errorf("products: /metrics %v != /stats %d", got, stats.Workload.ProductsMaterialized)
	}
}

// TestRequestIDAndServerTiming pins the per-request tracing contract:
// the response always carries X-Relsim-Request-ID (client-supplied
// values propagate verbatim) and evaluation endpoints emit a
// Server-Timing header with phase durations.
func TestRequestIDAndServerTiming(t *testing.T) {
	srv := New(store.New(testGraph()), nil)

	body, _ := json.Marshal(SearchRequest{Pattern: "by.by-", Query: "p1"})
	r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	id := w.Result().Header.Get(RequestIDHeader)
	if id == "" {
		t.Error("no generated request id on response")
	}
	st := w.Result().Header.Get("Server-Timing")
	if !strings.Contains(st, "total;dur=") {
		t.Errorf("Server-Timing = %q, want total;dur=", st)
	}
	if !strings.Contains(st, "score;dur=") || !strings.Contains(st, "expand;dur=") {
		t.Errorf("Server-Timing = %q, want expand and score spans", st)
	}

	// Client-supplied id propagates verbatim.
	r = httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	r.Header.Set(RequestIDHeader, "trace-me-7")
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if got := w.Result().Header.Get(RequestIDHeader); got != "trace-me-7" {
		t.Errorf("request id = %q, want trace-me-7", got)
	}
}

// TestSlowQueryLog: with a zero-distance threshold every query lands in
// the ring; entries carry the reproduction detail; the observability
// surface itself is never captured; /debug/queries serves newest-first.
func TestSlowQueryLog(t *testing.T) {
	srv := New(store.New(testGraph()), nil, WithSlowQuery(time.Nanosecond))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1"}, &SearchResponse{})
	post(t, ts, "/batch", BatchRequest{Queries: []SearchRequest{{Pattern: "by", Query: "p1"}}}, &BatchResponse{})
	// Probes and scrapes must not pollute the slow log.
	get(t, ts, "/stats", &StatsResponse{})
	getRaw(t, srv, "/metrics")

	var dbg struct {
		ThresholdMS float64          `json:"threshold_ms"`
		Entries     []SlowQueryEntry `json:"entries"`
	}
	if code := get(t, ts, "/debug/queries", &dbg); code != http.StatusOK {
		t.Fatalf("/debug/queries status = %d", code)
	}
	if len(dbg.Entries) != 2 {
		t.Fatalf("slow entries = %d, want 2 (got %+v)", len(dbg.Entries), dbg.Entries)
	}
	// Newest first: the batch came after the search.
	if dbg.Entries[0].Endpoint != "batch" || dbg.Entries[1].Endpoint != "search" {
		t.Errorf("order = [%s %s], want [batch search]", dbg.Entries[0].Endpoint, dbg.Entries[1].Endpoint)
	}
	se := dbg.Entries[1]
	if se.Pattern != "by.by-" || se.Query != "p1" || se.RequestID == "" {
		t.Errorf("search entry detail = %+v", se)
	}
	if len(se.PhasesMS) == 0 {
		t.Errorf("search entry has no phase breakdown: %+v", se)
	}
	if se.CacheHits+se.CacheMisses == 0 {
		t.Errorf("search entry recorded no cache activity: %+v", se)
	}
	be := dbg.Entries[0]
	if be.Queries != 1 {
		t.Errorf("batch entry queries = %d, want 1", be.Queries)
	}
	if be.CacheHits+be.CacheMisses == 0 {
		t.Errorf("batch entry recorded no cache activity: %+v", be)
	}
}

// TestSlowQueryLogDisabled: without WithSlowQuery the endpoint serves
// an empty ring and threshold 0.
func TestSlowQueryLogDisabled(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts, "/search", SearchRequest{Pattern: "by", Query: "p1"}, &SearchResponse{})
	var dbg struct {
		ThresholdMS float64          `json:"threshold_ms"`
		Entries     []SlowQueryEntry `json:"entries"`
	}
	if code := get(t, ts, "/debug/queries", &dbg); code != http.StatusOK {
		t.Fatalf("/debug/queries status = %d", code)
	}
	if dbg.ThresholdMS != 0 || len(dbg.Entries) != 0 {
		t.Errorf("disabled slow log = %+v, want empty with zero threshold", dbg)
	}
}

// TestSlowLogRingBound: the ring retains only the newest
// slowLogCapacity entries and reports the overflow.
func TestSlowLogRingBound(t *testing.T) {
	l := newSlowLog()
	for i := 0; i < slowLogCapacity+10; i++ {
		l.add(SlowQueryEntry{RequestID: fmt.Sprintf("r%d", i)})
	}
	entries, dropped := l.snapshot()
	if len(entries) != slowLogCapacity {
		t.Fatalf("entries = %d, want %d", len(entries), slowLogCapacity)
	}
	if dropped != 10 {
		t.Errorf("dropped = %d, want 10", dropped)
	}
	if entries[0].RequestID != fmt.Sprintf("r%d", slowLogCapacity+9) {
		t.Errorf("newest = %s", entries[0].RequestID)
	}
	if entries[len(entries)-1].RequestID != "r10" {
		t.Errorf("oldest = %s, want r10", entries[len(entries)-1].RequestID)
	}
}

// TestAccessLog: one structured line per request in both formats, with
// the request id linking the line to the response header.
func TestAccessLog(t *testing.T) {
	t.Run("json", func(t *testing.T) {
		var buf bytes.Buffer
		srv := New(store.New(testGraph()), nil, WithAccessLog(&buf, true))
		body, _ := json.Marshal(SearchRequest{Pattern: "by.by-", Query: "p1"})
		r := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		getRaw(t, srv, "/healthz")

		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != 2 {
			t.Fatalf("access lines = %d, want 2:\n%s", len(lines), buf.String())
		}
		var rec accessRecord
		if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
			t.Fatalf("line 1 not JSON: %v\n%s", err, lines[0])
		}
		if rec.Endpoint != "search" || rec.Status != 200 || rec.Method != http.MethodPost {
			t.Errorf("record = %+v", rec)
		}
		if rec.RequestID != w.Result().Header.Get(RequestIDHeader) {
			t.Errorf("log id %q != response id %q", rec.RequestID, w.Result().Header.Get(RequestIDHeader))
		}
		if rec.DurationMS <= 0 || len(rec.PhasesMS) == 0 {
			t.Errorf("duration/phases missing: %+v", rec)
		}
	})
	t.Run("text", func(t *testing.T) {
		var buf bytes.Buffer
		srv := New(store.New(testGraph()), nil, WithAccessLog(&buf, false))
		code, _, _ := getRaw(t, srv, "/healthz")
		if code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		line := strings.TrimSpace(buf.String())
		if !strings.Contains(line, "GET /healthz 200") {
			t.Errorf("text line = %q", line)
		}
	})
}

// TestPprofMount: opt-in only.
func TestPprofMount(t *testing.T) {
	srv := New(store.New(testGraph()), nil, func(c *Config) { c.Pprof = true })
	if code, _, body := getRaw(t, srv, "/debug/pprof/"); code != http.StatusOK || !bytes.Contains(body, []byte("profile")) {
		t.Errorf("pprof index: status %d", code)
	}
	off := New(store.New(testGraph()), nil)
	if code, _, _ := getRaw(t, off, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", code)
	}
}

// TestUninstrumented: Config.Instrumentation off removes the whole
// telemetry surface — no /metrics, no request ids, zeroed /stats
// request counters — while the query API keeps working. This is the
// overhead benchmark's baseline configuration.
func TestUninstrumented(t *testing.T) {
	srv := New(store.New(testGraph()), nil, func(c *Config) { c.Instrumentation = false })
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var resp SearchResponse
	if code := post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1"}, &resp); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results without instrumentation")
	}
	code, hdr, _ := getRaw(t, srv, "/metrics")
	if code != http.StatusNotFound {
		t.Errorf("/metrics status = %d, want 404", code)
	}
	_ = hdr
	r := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(`{"pattern":"by","query":"p1"}`))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if got := w.Result().Header.Get(RequestIDHeader); got != "" {
		t.Errorf("request id %q on uninstrumented server", got)
	}
	if req := srv.Stats().Requests; req["search"] != 0 {
		t.Errorf("request counters without instrumentation = %v, want zeros", req)
	}
	if srv.Registry() != nil {
		t.Error("registry present without instrumentation")
	}
}

// TestMetricsUnderConcurrentTraffic hammers the instrumented server
// from many goroutines while scraping mid-storm; run with -race. Every
// scrape must lint.
func TestMetricsUnderConcurrentTraffic(t *testing.T) {
	srv, ts := newTestServer(t)
	const workers, iters = 6, 20
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var err error
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1"}, &SearchResponse{})
				case 1:
					var mut MutationResponse
					post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: fmt.Sprintf("c%d_%d", w, i), To: "p2"}}}, &mut)
				case 2:
					code, _, body := getRaw(t, srv, "/metrics")
					if code != http.StatusOK {
						err = fmt.Errorf("scrape status %d", code)
					} else if _, lintErr := telemetry.Lint(body); lintErr != nil {
						err = fmt.Errorf("mid-storm lint: %v", lintErr)
					}
				}
			}
			errc <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	_, body := scrape(t, srv)
	got := seriesValue(t, body, `relsim_http_requests_total{endpoint="search"}`)
	if want := float64(workers * 7); got != want {
		t.Errorf("search requests = %v, want %v", got, want)
	}
}
