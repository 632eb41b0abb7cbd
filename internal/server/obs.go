package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"relsim/internal/telemetry"
)

// endpoints are the label values per-endpoint series are pre-created
// under, so every endpoint's counters and latency histogram exist in
// the exposition from the first scrape — a dashboard query never
// depends on an endpoint having been hit.
var endpoints = []string{
	"search", "batch", "explain", "mutations",
	"healthz", "stats", "log", "checkpoint",
	"metrics", "debug", "other",
}

// endpointName maps a request path to its metric label. Unknown paths
// collapse into "other" so client typos cannot mint unbounded label
// values.
func endpointName(path string) string {
	switch path {
	case "/search":
		return "search"
	case "/batch":
		return "batch"
	case "/explain":
		return "explain"
	case "/graph/edges":
		return "mutations"
	case "/healthz":
		return "healthz"
	case "/stats":
		return "stats"
	case "/log":
		return "log"
	case "/checkpoint":
		return "checkpoint"
	case "/metrics":
		return "metrics"
	}
	if strings.HasPrefix(path, "/debug/") {
		return "debug"
	}
	return "other"
}

// serverObs holds the HTTP-layer metric handles. Counting happens in
// the middleware from the response status, so an error path cannot
// forget to increment anything: every 4xx/5xx is an error, every 504 a
// timeout, whatever handler produced it. The two handler-level
// exceptions — /batch's soft timeout and its per-query errors, both
// delivered inside 200 responses — have explicit nil-safe hooks below.
type serverObs struct {
	inFlight    *telemetry.Metric
	queryErrors *telemetry.Metric
	panics      *telemetry.Metric
	phase       *telemetry.Vec

	requests map[string]*telemetry.Metric
	errors   map[string]*telemetry.Metric
	timeouts map[string]*telemetry.Metric
	duration map[string]*telemetry.Metric
}

func newServerObs(reg *telemetry.Registry) *serverObs {
	o := &serverObs{
		inFlight: reg.Gauge("relsim_http_in_flight_requests",
			"Requests currently being served.").With(),
		queryErrors: reg.Counter("relsim_batch_query_errors_total",
			"Per-query errors inside /batch responses (the response itself is a 200).").With(),
		panics: reg.Counter("relsim_http_panics_total",
			"Handler panics recovered into 500 responses (or per-query /batch errors).").With(),
		phase: reg.Histogram("relsim_http_request_phase_seconds",
			"Time spent per execution phase (expand, plan, materialize, score, evaluate).",
			nil, "endpoint", "phase"),
		requests: make(map[string]*telemetry.Metric, len(endpoints)),
		errors:   make(map[string]*telemetry.Metric, len(endpoints)),
		timeouts: make(map[string]*telemetry.Metric, len(endpoints)),
		duration: make(map[string]*telemetry.Metric, len(endpoints)),
	}
	req := reg.Counter("relsim_http_requests_total",
		"HTTP requests served.", "endpoint")
	errs := reg.Counter("relsim_http_request_errors_total",
		"HTTP requests answered with status >= 400.", "endpoint")
	touts := reg.Counter("relsim_http_request_timeouts_total",
		"Requests that hit a deadline: 504 responses plus /batch soft timeouts.", "endpoint")
	dur := reg.Histogram("relsim_http_request_seconds",
		"HTTP request latency.", nil, "endpoint")
	for _, ep := range endpoints {
		o.requests[ep] = req.With(ep)
		o.errors[ep] = errs.With(ep)
		o.timeouts[ep] = touts.With(ep)
		o.duration[ep] = dur.With(ep)
	}
	return o
}

// pick returns the endpoint's handle, falling back to "other". Nil
// receiver (uninstrumented server) yields a nil Metric, which is a
// no-op sink.
func (o *serverObs) pick(m map[string]*telemetry.Metric, ep string) *telemetry.Metric {
	if o == nil {
		return nil
	}
	if h, ok := m[ep]; ok {
		return h
	}
	return m["other"]
}

// batchQueryError counts one failed query inside a /batch response.
func (o *serverObs) batchQueryError() {
	if o != nil {
		o.queryErrors.Inc()
	}
}

// batchSoftTimeout counts a /batch that lost queries to the deadline
// but still answered 200 — invisible to status-based counting.
func (o *serverObs) batchSoftTimeout() {
	if o != nil {
		o.timeouts["batch"].Inc()
	}
}

// handlerPanic counts one recovered handler panic.
func (o *serverObs) handlerPanic() {
	if o != nil {
		o.panics.Inc()
	}
}

// obsWriter wraps the response writer to capture the status code and to
// inject the Server-Timing header at the first write — the last moment
// the header can still be set, and by which evaluation (the thing the
// spans time) has finished.
type obsWriter struct {
	http.ResponseWriter
	tr     *Trace
	status int
	wrote  bool
}

func (w *obsWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = code
	if st := w.tr.serverTiming(); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

func (w *obsWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observed is the instrumented request path: assign/propagate the
// request id, attach a Trace to the context, serve, then account the
// outcome from the response status and feed the slow-query and access
// logs. It is the single choke point request accounting flows through —
// handlers cannot skip it.
func (s *Server) observed(w http.ResponseWriter, r *http.Request) {
	ep := endpointName(r.URL.Path)
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = newRequestID()
	}
	tr := newTrace(id, ep)
	w.Header().Set(RequestIDHeader, id)
	ow := &obsWriter{ResponseWriter: w, tr: tr, status: http.StatusOK}

	o := s.obs
	o.inFlight.Inc()
	// Deferred so a panic escaping the recovery layer below (it should
	// not, but gauges must never skew) still decrements.
	defer o.inFlight.Dec()
	s.protected(ow, r.WithContext(withTrace(r.Context(), tr)))

	dur := time.Since(tr.Start)
	o.pick(o.requests, ep).Inc()
	o.pick(o.duration, ep).Observe(dur.Seconds())
	if ow.status >= 400 {
		o.pick(o.errors, ep).Inc()
	}
	if ow.status == http.StatusGatewayTimeout {
		o.pick(o.timeouts, ep).Inc()
	}
	phases := tr.Phases()
	for _, ph := range phases {
		o.phase.With(ep, ph.Name).Observe(ph.Seconds)
	}

	if s.slow != nil && s.cfg.SlowQuery > 0 && dur >= s.cfg.SlowQuery && slowLoggable(ep) {
		s.slow.add(tr.slowEntry(ow.status, dur))
	}
	s.logAccess(r, tr, phases, ow.status, dur)
}

// slowLoggable excludes the observability surface itself from the
// slow-query log: a slow scrape or probe is not a slow query.
func slowLoggable(ep string) bool {
	switch ep {
	case "healthz", "stats", "metrics", "debug":
		return false
	}
	return true
}

// slowEntry freezes the trace into a slow-query log record.
func (t *Trace) slowEntry(status int, dur time.Duration) SlowQueryEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := SlowQueryEntry{
		RequestID:        t.ID,
		Endpoint:         t.Endpoint,
		Status:           status,
		Time:             t.Start,
		DurationMS:       float64(dur) / float64(time.Millisecond),
		Pattern:          t.pattern,
		Query:            t.query,
		Alg:              t.alg,
		Queries:          t.queries,
		Version:          t.version,
		PlanDeduped:      t.deduped,
		PlanSavedMuls:    t.saved,
		CacheHits:        t.hits,
		CacheMisses:      t.misses,
		ProductsComputed: t.products,
	}
	if len(t.phases) > 0 {
		e.PhasesMS = make(map[string]float64, len(t.phases))
		for _, ph := range t.phases {
			e.PhasesMS[ph.Name] += ph.Seconds * 1000
		}
	}
	return e
}

// accessRecord is one JSON access-log line.
type accessRecord struct {
	Time       string             `json:"time"`
	Level      string             `json:"level"`
	Msg        string             `json:"msg"`
	RequestID  string             `json:"request_id"`
	Endpoint   string             `json:"endpoint"`
	Method     string             `json:"method"`
	Path       string             `json:"path"`
	Status     int                `json:"status"`
	DurationMS float64            `json:"duration_ms"`
	PhasesMS   map[string]float64 `json:"phases_ms,omitempty"`
}

// logAccess emits one line per request to the configured access-log
// writer, JSON or text. Lines are rendered outside the mutex; only the
// single Write is serialized, so concurrent requests cannot interleave
// partial lines.
func (s *Server) logAccess(r *http.Request, tr *Trace, phases []PhaseSpan, status int, dur time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	ms := float64(dur) / float64(time.Millisecond)
	var line []byte
	if s.cfg.AccessLogJSON {
		rec := accessRecord{
			Time:       time.Now().UTC().Format(time.RFC3339Nano),
			Level:      "info",
			Msg:        "request",
			RequestID:  tr.ID,
			Endpoint:   tr.Endpoint,
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     status,
			DurationMS: ms,
		}
		if len(phases) > 0 {
			rec.PhasesMS = make(map[string]float64, len(phases))
			for _, ph := range phases {
				rec.PhasesMS[ph.Name] += ph.Seconds * 1000
			}
		}
		line, _ = json.Marshal(rec)
		line = append(line, '\n')
	} else {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s %s %s %d %.2fms",
			time.Now().UTC().Format(time.RFC3339Nano), tr.ID, r.Method, r.URL.Path, status, ms)
		for _, ph := range phases {
			fmt.Fprintf(&b, " %s=%.2fms", ph.Name, ph.Seconds*1000)
		}
		b.WriteByte('\n')
		line = []byte(b.String())
	}
	s.accessMu.Lock()
	s.cfg.AccessLog.Write(line)
	s.accessMu.Unlock()
}

// instrumentEngine registers the evaluation-engine metrics: the shared
// commuting-matrix cache, the Algorithm-1 expansion memo, the workload
// planner's dedup counters, and the server-wide product count. All are
// scrape-time callbacks over the same state /stats reports, so the two
// surfaces cannot drift.
func (s *Server) instrumentEngine(reg *telemetry.Registry) {
	reg.CounterFunc("relsim_eval_cache_hits_total",
		"Commuting-matrix cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("relsim_eval_cache_misses_total",
		"Commuting-matrix cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("relsim_eval_cache_evictions_total",
		"Commuting-matrix cache evictions (LRU bound).",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.CounterFunc("relsim_eval_cache_invalidations_total",
		"Commuting-matrix cache entries invalidated by writes.",
		func() float64 { return float64(s.cache.Stats().Invalidations) })
	reg.GaugeFunc("relsim_eval_cache_entries",
		"Matrices resident in the commuting-matrix cache.",
		func() float64 { return float64(s.cache.Stats().Size) })
	reg.GaugeFunc("relsim_eval_cache_versions",
		"Distinct graph versions with resident cache entries.",
		func() float64 { return float64(s.cache.Stats().Versions) })
	reg.CounterFunc("relsim_eval_products_total",
		"Matrix products performed by evaluators bound to this server.",
		func() float64 { return float64(s.nProducts.Load()) })

	reg.CounterFunc("relsim_delta_commits_total",
		"Commits that ran incremental cache maintenance.",
		func() float64 { return float64(s.nDeltaCommits.Load()) })
	reg.CounterFunc("relsim_delta_roots_total",
		"Stale cached patterns eligible for incremental maintenance.",
		func() float64 { return float64(s.nDeltaRoots.Load()) })
	reg.CounterFunc("relsim_delta_maintained_total",
		"Cached patterns patched forward by delta products instead of evicted.",
		func() float64 { return float64(s.nDeltaMaintained.Load()) })
	reg.CounterFunc("relsim_delta_fallbacks_total",
		"Patterns maintenance gave up on (dense delta or unwalkable key).",
		func() float64 { return float64(s.nDeltaFallbacks.Load()) })
	reg.CounterFunc("relsim_delta_products_total",
		"Sparse products spent applying commit deltas.",
		func() float64 { return float64(s.nDeltaProducts.Load()) })
	s.deltaDur = reg.Histogram("relsim_delta_maintenance_seconds",
		"Wall time per commit spent maintaining cached matrices.",
		nil).With()

	reg.CounterFunc("relsim_workload_planned_batches_total",
		"Batches that completed a workload plan.",
		func() float64 { return float64(s.nPlanned.Load()) })
	reg.CounterFunc("relsim_workload_subpatterns_deduped_total",
		"Subexpression materializations avoided by DAG sharing.",
		func() float64 { return float64(s.nDeduped.Load()) })
	reg.CounterFunc("relsim_workload_products_saved_total",
		"Matrix products avoided by workload planning (static estimate).",
		func() float64 { return float64(s.nProductsSaved.Load()) })
	reg.CounterFunc("relsim_workload_unplannable_patterns_total",
		"Patterns excluded from planning (canonicalization not count-exact).",
		func() float64 { return float64(s.nUnplannable.Load()) })

	reg.CounterFunc("relsim_expand_memo_hits_total",
		"Algorithm-1 expansion memo hits.",
		func() float64 { s.expandMu.Lock(); defer s.expandMu.Unlock(); return float64(s.expandHits) })
	reg.CounterFunc("relsim_expand_memo_misses_total",
		"Algorithm-1 expansion memo misses.",
		func() float64 { s.expandMu.Lock(); defer s.expandMu.Unlock(); return float64(s.expandMisses) })
	reg.CounterFunc("relsim_expand_memo_evictions_total",
		"Algorithm-1 expansion memo evictions (LRU bound).",
		func() float64 { s.expandMu.Lock(); defer s.expandMu.Unlock(); return float64(s.expandEvictions) })
	reg.GaugeFunc("relsim_expand_memo_entries",
		"Expansions resident in the Algorithm-1 memo.",
		func() float64 { s.expandMu.Lock(); defer s.expandMu.Unlock(); return float64(len(s.expand)) })

	reg.GaugeFunc("relsim_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
}
