package server

// Traffic hardening: the admission middleware chain. Every request to a
// gated endpoint passes identify → quota → admit before its body is
// read, a snapshot is pinned, or an evaluator is built:
//
//	identify  resolve the client key (X-Relsim-Api-Key, else the
//	          remote address)
//	quota     per-client token bucket — drained answers 429 with
//	          Retry-After
//	admit     concurrency gate with a bounded wait queue — a full
//	          queue or an expired wait answers 503 immediately
//
// Rejections therefore cost O(1): a shed request never decodes JSON,
// never pins a version (PinStats stays flat however hard the box is
// overloaded), and never occupies a worker. The third mechanism, the
// per-request cost ceiling, runs later in the handler — it needs the
// decoded pattern set — but still strictly before any snapshot is
// pinned or matrix materialized: the workload plan's product count
// (eval.EstimateProducts) is compared against the ceiling and
// pathological queries answer 422.
//
// The observability surface (/healthz, /stats, /metrics, /debug) and
// the replication surface (/log, /checkpoint) are exempt: probes and
// followers must see an overloaded leader, not be shed by it.

import (
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"relsim/internal/admission"
	"relsim/internal/telemetry"
)

// APIKeyHeader identifies the client for rate limiting; without it the
// remote address is the key.
const APIKeyHeader = "X-Relsim-Api-Key"

// AdmissionStats is the /stats view of the admission controller.
type AdmissionStats = admission.Stats

// Admission returns the server's admission controller (nil when no
// admission mechanism is configured) — tests and the cmd layer probe
// it.
func (s *Server) Admission() *admission.Controller { return s.adm }

// gated reports whether an endpoint is subject to admission control.
// The observability and replication surfaces are exempt: a probe, a
// scrape, or a follower's tail must observe an overloaded leader
// instead of being shed by it.
func gated(ep string) bool {
	switch ep {
	case "search", "batch", "explain", "mutations":
		return true
	}
	return false
}

// clientKey resolves the rate-limit identity: the API key header when
// present, else the remote host (ports vary per connection and would
// defeat the bucket).
func clientKey(r *http.Request) string {
	if k := r.Header.Get(APIKeyHeader); k != "" {
		return k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders a Retry-After value: whole seconds, rounded
// up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// protected is the hardened request path every request flows through
// (inside the observability middleware when instrumentation is on):
// panic recovery, then admission for the gated endpoints, then the
// request-body bound, then the mux.
func (s *Server) protected(w http.ResponseWriter, r *http.Request) {
	// A handler panic unwinds through the handler's own defers first —
	// releasing its pinned snapshot — and is converted to a clean 500
	// here, so one broken request cannot leak a pin (blocking checkpoint
	// retirement and skewing PinStats forever), skew the in-flight
	// gauges, or tear down the connection without a response.
	defer func() {
		if p := recover(); p != nil {
			s.obs.handlerPanic()
			log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			s.writeJSON(w, http.StatusInternalServerError, errorResponse{
				Error: fmt.Sprintf("internal error: %v", p),
				Code:  "panic",
			})
		}
	}()
	if s.adm != nil && gated(endpointName(r.URL.Path)) {
		if ok, retry := s.adm.Allow(clientKey(r)); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			s.writeJSON(w, http.StatusTooManyRequests, errorResponse{
				Error: "rate limit exceeded",
				Code:  "rate_limited",
			})
			return
		}
		release, ok, waited := s.adm.Acquire(r.Context())
		if !ok {
			w.Header().Set("Retry-After", "1")
			s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error: "server overloaded, request shed",
				Code:  "overloaded",
			})
			return
		}
		defer release()
		s.admWait.Observe(waited.Seconds())
	}
	if s.cfg.MaxBodyBytes > 0 && r.Body != nil && r.Body != http.NoBody {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// checkCost enforces the per-request cost ceiling: cost is the
// request's estimated evaluation cost in matrix products
// (eval.EstimateProducts over its pattern set). Over the ceiling it
// writes the 422 and reports false; the caller must return without
// pinning a snapshot.
func (s *Server) checkCost(w http.ResponseWriter, cost int) bool {
	max := s.adm.MaxCost()
	if max <= 0 || cost <= max {
		return true
	}
	s.adm.RejectCost()
	s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
		Error: fmt.Sprintf("estimated evaluation cost %d matrix products exceeds the ceiling %d", cost, max),
		Code:  "cost_ceiling",
	})
	return false
}

// instrumentAdmission registers the relsim_admission_* series. All read
// through nil-safe controller accessors, so an unconfigured controller
// exposes honest zeros rather than absent series.
func (s *Server) instrumentAdmission(reg *telemetry.Registry) {
	reg.CounterFunc("relsim_admission_admitted_total",
		"Requests admitted through the concurrency gate.",
		func() float64 { return float64(s.adm.Admitted()) })
	reg.CounterFunc("relsim_admission_shed_total",
		"Requests shed by load (queue full, queue wait expired, or client gone while queued).",
		func() float64 { return float64(s.adm.Shed()) })
	reg.CounterFunc("relsim_admission_throttled_total",
		"Requests rejected by per-client rate limiting.",
		func() float64 { return float64(s.adm.Throttled()) })
	reg.CounterFunc("relsim_admission_cost_rejected_total",
		"Requests rejected by the per-request cost ceiling.",
		func() float64 { return float64(s.adm.CostRejected()) })
	reg.GaugeFunc("relsim_admission_in_flight",
		"Gated requests currently admitted and running.",
		func() float64 { return float64(s.adm.InFlight()) })
	reg.GaugeFunc("relsim_admission_queue_depth",
		"Requests currently waiting for admission capacity.",
		func() float64 { return float64(s.adm.Queued()) })
	reg.GaugeFunc("relsim_admission_tracked_clients",
		"Distinct client keys holding a live rate-limit bucket.",
		func() float64 { return float64(s.adm.TrackedClients()) })
	s.admWait = reg.Histogram("relsim_admission_wait_seconds",
		"Time admitted requests spent queued for capacity.",
		nil).With()
}
