package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/eval"
	"relsim/internal/server"
	"relsim/internal/store"
)

// coldSample is one cold /batch and what the server answered.
type coldSample struct {
	req  server.BatchRequest
	resp server.BatchResponse
}

// runColdBatch: every sample builds a fresh server over the 2x fixture
// and times one overlap /batch against its empty cache, so the time is
// Algorithm-1-free plan execution and SpGEMM. One client connection,
// closed loop.
func runColdBatch(cfg config) (*outcome, error) {
	o := &outcome{}
	type env struct {
		ds datasets.Dataset
		lb *loopback
	}
	setups := 9
	if cfg.trace {
		setups = 1
	}
	setupS, e, err := setupTimes(setups, func() (env, error) {
		ds := dblp2x()
		lb, err := startLoopback(newServer(store.New(ds.Graph), ds))
		return env{ds, lb}, err
	}, func(e env) { e.lb.close() })
	if err != nil {
		return nil, err
	}
	defer e.lb.close()
	procs := len(e.ds.Graph.NodesOfType("proc"))

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	p := newPhase()
	gen := newOverlapGen(cfg.seed, procs, true)
	var samples []coldSample
	p.mem0 = readMem()
	start := time.Now()
	var client time.Duration
	var heap []float64 // live heap after each sample, its server still up
	for len(samples) == 0 || time.Since(start).Seconds() < measure {
		req := gen.next()
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		srv := newServer(store.New(e.ds.Graph), e.ds)
		e.lb.swap(srv)
		runtime.GC() // the previous sample's garbage is not this sample's cost
		pre, err := e.lb.stats()
		if err != nil {
			return nil, err
		}
		if pre.Cache.Size != 0 || pre.Workload.ProductsMaterialized != 0 {
			o.problem("cold sample %d did not start from an empty cache: %d entries, %d products",
				len(samples), pre.Cache.Size, pre.Workload.ProductsMaterialized)
		}
		rep, err := e.lb.post("/batch", body)
		if err != nil {
			return nil, err
		}
		client += rep.latency
		p.record("batch", rep)
		o.attempted += len(req.Queries)
		s := coldSample{req: req}
		if rep.status != http.StatusOK {
			o.failed += len(req.Queries)
			o.problem("cold /batch answered %d: %s", rep.status, rep.body)
		} else if err := json.Unmarshal(rep.body, &s.resp); err != nil {
			return nil, fmt.Errorf("decode /batch: %w", err)
		}
		post, err := e.lb.stats()
		if err != nil {
			return nil, err
		}
		if post.Workload.ProductsMaterialized == 0 {
			o.problem("cold sample %d made no products", len(samples))
		}
		p.counters = p.counters.plus(countersOf(post).since(countersOf(pre)))
		p.entries = float64(post.Cache.Size)
		samples = append(samples, s)
		heap = append(heap, heapMB())
	}
	p.elapsed = client
	p.mem = readMem()
	for _, s := range samples {
		for _, r := range s.resp.Results {
			if r.Error == "" {
				p.queries++
			}
		}
	}

	// Every answer of every sample against a fresh unplanned evaluator;
	// all samples share the fixture graph at version 0.
	snap := store.New(e.ds.Graph)
	view, version := snap.View()
	for _, s := range samples {
		ref := newReference(view, version, e.ds.Schema)
		checkBatch(o, ref, &s.req, &s.resp)
	}
	o.note("cold-batch: %d samples, %d queries checked, %.1f products per cold batch",
		len(samples), len(samples)*overlapQueries, p.counters[cProducts]/float64(len(samples)))

	if !cfg.trace {
		endToEnd(o, p, setupS, "batch", median(heap))
		return o, nil
	}
	reportLatency(o, "batch", p.lat["batch"])

	// Traced replay of the same batch sequence, one fresh cache per
	// sample, through the layers' public functions.
	r := newReplayer(e.ds.Schema)
	gen = newOverlapGen(cfg.seed, procs, true)
	start = time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < measure; n++ {
		req := gen.next()
		ev := r.evaluator(view, version, eval.NewCache())
		r.tr.op = n
		id := r.tr.begin("bench.batch")
		resp, err := r.batch(ev, &req)
		r.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if n < len(samples) {
			sameAnswers(o, &samples[n].resp, &resp)
		}
	}
	perLayer(o, p, r, "bench.batch", 0)
	return o, r.tr.write(filepath.Join(".bench_build", fmt.Sprintf("spans-cold-batch-%d.json", cfg.seed)))
}

// checkBatch checks every query of a served batch against ref; a
// mismatch or per-query error counts as a failed query.
func checkBatch(o *outcome, ref *reference, req *server.BatchRequest, resp *server.BatchResponse) {
	if len(resp.Results) != len(req.Queries) {
		o.failed += len(req.Queries)
		o.problem("batch answered %d results for %d queries", len(resp.Results), len(req.Queries))
		return
	}
	for i := range req.Queries {
		res := resp.Results[i]
		if res.Error != "" {
			o.failed++
			o.problem("query %d: %s", i, res.Error)
			continue
		}
		if err := ref.check(&req.Queries[i], res.SearchResponse); err != nil {
			o.failed++
			o.problem("wrong answer: %v", err)
		}
	}
}

// sameAnswers checks that the traced replay answered exactly as the
// server did.
func sameAnswers(o *outcome, served, replayed *server.BatchResponse) {
	for i, res := range served.Results {
		if res.SearchResponse == nil || i >= len(replayed.Results) {
			continue
		}
		a, b := res.Results, replayed.Results[i].Results
		if len(a) != len(b) {
			o.problem("replayed query %d: %d results, served %d", i, len(b), len(a))
			continue
		}
		for j := range a {
			if a[j].ID != b[j].ID || a[j].Score != b[j].Score {
				o.problem("replayed query %d result %d differs from the served answer", i, j)
				break
			}
		}
	}
}
