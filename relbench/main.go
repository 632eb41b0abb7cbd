// Command relbench is relsim's benchmark: one entry point that drives
// the HTTP API of an in-process server.New instance (relsim-serve's
// default settings, listening on loopback) with a seeded workload,
// checks every answer it samples against a fresh unplanned evaluator,
// and prints the end-to-end metrics — or, with -trace 1, replays the
// same requests through the layers' public functions and prints the
// per-layer metrics.
//
//	bash relbench/run.sh --workload cold-batch --seed 1 --seconds 20 --trace 0
//
// Workloads: cold-batch, warm-search, write-read (see BENCHMARK.json
// and COVERAGE.md). The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// are a readable report. Files (spans, the durable store) go under
// .bench_build in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"relsim/internal/server"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory inside the working directory
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	problems          []string // failed checks: the run is not correct
	metrics           map[string]metric
	report            []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"cold-batch":  runColdBatch,
	"warm-search": runWarmSearch,
	"write-read":  runWriteRead,
}

// main exits 0 once it has printed a result line, whose "correct" says
// whether every check passed, and 1 without one.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		os.Exit(1)
	}
}

// run runs the selected workload and prints its report and result line.
func run() error {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: cold-batch, warm-search or write-read")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg.trace = traceFlag == 1
	cfg.dir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)

	out, err := fn(cfg)
	if err != nil {
		return err
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	correct := len(out.problems) == 0 && out.failed == 0
	for n, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", n)
		}
	}
	buf, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, out.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// heapMB is the Go heap in use after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// memSnap snapshots the runtime's cumulative GC pause and allocation.
type memSnap struct{ pauseNS, alloc uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{pauseNS: m.PauseTotalNs, alloc: m.TotalAlloc}
}

// setupTimes runs build n times and returns the median duration in
// seconds and the last build's result; earlier results are released
// before the next build so they do not inflate its heap.
func setupTimes[T any](n int, build func() (T, error), release func(T)) (float64, T, error) {
	var last T
	var ds []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			release(last)
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return 0, last, err
		}
		ds = append(ds, time.Since(start).Seconds())
		last = v
	}
	return median(ds), last, nil
}

// Cumulative /stats counters the benchmark reads, indexed so two
// snapshots can be subtracted and per-sample deltas summed.
const (
	cHits = iota
	cMisses
	cExpandHits
	cExpandMisses
	cProducts
	cDeltaCommits
	cDeltaRoots
	cDeltaMaintained
	cDeltaFallbacks
	cDeltaProducts
	cDeltaSeconds
	cFsyncs
	cCheckpoints
	cEvictions
	nCounters
)

type counters [nCounters]float64

func countersOf(s server.StatsResponse) counters {
	return counters{
		cHits:            float64(s.Cache.Hits),
		cMisses:          float64(s.Cache.Misses),
		cExpandHits:      float64(s.ExpandMemo.Hits),
		cExpandMisses:    float64(s.ExpandMemo.Misses),
		cProducts:        float64(s.Workload.ProductsMaterialized),
		cDeltaCommits:    float64(s.Delta.Commits),
		cDeltaRoots:      float64(s.Delta.Roots),
		cDeltaMaintained: float64(s.Delta.Maintained),
		cDeltaFallbacks:  float64(s.Delta.Fallbacks),
		cDeltaProducts:   float64(s.Delta.Products),
		cDeltaSeconds:    s.Delta.MaintenanceSeconds,
		cFsyncs:          float64(s.Durability.WAL.Fsyncs),
		cCheckpoints:     float64(s.Durability.Checkpoints),
		cEvictions:       float64(s.Cache.Evictions + s.Cache.Invalidations),
	}
}

func (c counters) since(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) plus(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}
