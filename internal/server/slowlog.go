package server

import (
	"net/http"
	"sync"
	"time"
)

// SlowQueryEntry is one captured slow request, as served by
// GET /debug/queries: enough detail to reproduce and diagnose the query
// without re-running it — what was asked, which snapshot version it ran
// against, how the planner deduped it, how the cache behaved, and where
// the time went phase by phase.
type SlowQueryEntry struct {
	RequestID  string             `json:"request_id"`
	Endpoint   string             `json:"endpoint"`
	Status     int                `json:"status"`
	Time       time.Time          `json:"time"`
	DurationMS float64            `json:"duration_ms"`
	PhasesMS   map[string]float64 `json:"phases_ms,omitempty"`

	Pattern string `json:"pattern,omitempty"`
	Query   string `json:"query,omitempty"`
	Alg     string `json:"alg,omitempty"`
	Queries int    `json:"queries,omitempty"`
	Version uint64 `json:"version,omitempty"`

	PlanDeduped      int    `json:"plan_deduped,omitempty"`
	PlanSavedMuls    int    `json:"plan_products_saved,omitempty"`
	CacheHits        uint64 `json:"cache_hits,omitempty"`
	CacheMisses      uint64 `json:"cache_misses,omitempty"`
	ProductsComputed uint64 `json:"products_computed,omitempty"`
}

// slowLogCapacity bounds the ring; the newest entries win.
const slowLogCapacity = 128

// slowLog is a fixed-capacity ring of the most recent slow requests.
type slowLog struct {
	mu      sync.Mutex
	entries []SlowQueryEntry // ring storage, len grows to capacity
	next    int              // index the next entry overwrites
	dropped uint64           // entries evicted by the ring
}

func newSlowLog() *slowLog { return &slowLog{} }

func (l *slowLog) add(e SlowQueryEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) < slowLogCapacity {
		l.entries = append(l.entries, e)
		l.next = len(l.entries) % slowLogCapacity
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % slowLogCapacity
	l.dropped++
}

// snapshot returns the retained entries, newest first.
func (l *slowLog) snapshot() (entries []SlowQueryEntry, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.entries)
	entries = make([]SlowQueryEntry, 0, n)
	for i := 1; i <= n; i++ {
		entries = append(entries, l.entries[(l.next-i+n+n)%n])
	}
	return entries, l.dropped
}

// handleSlowQueries serves GET /debug/queries.
func (s *Server) handleSlowQueries(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		ThresholdMS float64          `json:"threshold_ms"`
		Capacity    int              `json:"capacity"`
		Dropped     uint64           `json:"dropped"`
		Entries     []SlowQueryEntry `json:"entries"`
	}{
		ThresholdMS: float64(s.cfg.SlowQuery) / float64(time.Millisecond),
		Capacity:    slowLogCapacity,
		Entries:     []SlowQueryEntry{},
	}
	if s.slow != nil {
		resp.Entries, resp.Dropped = s.slow.snapshot()
	}
	s.writeJSON(w, http.StatusOK, resp)
}
