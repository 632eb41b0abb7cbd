package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/server"
	"relsim/internal/store"
)

const (
	warmBatchEvery = 10 // every 10th request of a client is a warm /batch
	warmBatchPool  = 10 // distinct overlap batches, primed at setup
	// warmPoolSeed fixes the pool like the graph: the cache contents are
	// the workload's fixture, so the heap and the batch mix do not move
	// with --seed, which picks the request sequence and query nodes.
	warmPoolSeed = 73
	warmNodes    = 16 // query nodes per pattern type
	checkEvery   = 50 // a client keeps one answer in 50 for checking
	maxChecks    = 40
)

// warmStream is one client's seeded request sequence.
type warmStream struct {
	rng   *rand.Rand
	n     int
	nodes map[string][]string
	pool  []server.BatchRequest
}

func newWarmStream(seed int64, client int, nodes map[string][]string, pool []server.BatchRequest) *warmStream {
	return &warmStream{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), nodes: nodes, pool: pool}
}

// next returns the next request: a warm overlap /batch at a fixed
// share, otherwise a robust /search on a simple DBLP pattern.
func (s *warmStream) next() (path string, search *server.SearchRequest, batch *server.BatchRequest) {
	s.n++
	if s.n%warmBatchEvery == 0 {
		return "/batch", nil, &s.pool[s.rng.Intn(len(s.pool))]
	}
	sp := searchPatterns[s.rng.Intn(len(searchPatterns))]
	nodes := s.nodes[sp.typ]
	return "/search", &server.SearchRequest{
		Pattern: sp.pattern, Query: nodes[s.rng.Intn(len(nodes))], Type: sp.typ, Alg: "search", Top: 10,
	}, nil
}

// kept is one served answer sampled for the reference check.
type kept struct {
	search *server.SearchRequest
	batch  *server.BatchRequest
	body   []byte
}

// runWarmSearch: the robust pipeline at steady state. Setup primes
// every E_p matrix, the expansion memo and the batch pool; two clients
// then loop over /search (alg=search) with warm /batch requests mixed
// in. The kernel must do no work.
func runWarmSearch(cfg config) (*outcome, error) {
	o := &outcome{}
	type env struct {
		ds    datasets.Dataset
		st    *store.Store
		srv   *server.Server
		lb    *loopback
		nodes map[string][]string
		pool  []server.BatchRequest
	}
	setups := 3
	if cfg.trace {
		setups = 1
	}
	setupS, e, err := setupTimes(setups, func() (env, error) {
		ds := dblp2x()
		st := store.New(ds.Graph)
		srv := newServer(st, ds)
		lb, err := startLoopback(srv)
		if err != nil {
			return env{}, err
		}
		e := env{ds: ds, st: st, srv: srv, lb: lb, nodes: map[string][]string{}}
		for i, sp := range searchPatterns {
			e.nodes[sp.typ] = queryNodes(ds.Graph, sp.typ, warmNodes, cfg.seed+int64(i))
			body, _ := json.Marshal(server.SearchRequest{Pattern: sp.pattern, Query: e.nodes[sp.typ][0], Type: sp.typ, Alg: "search"})
			if err := primeRequest(lb, "/search", body); err != nil {
				return e, err
			}
		}
		gen := newOverlapGen(warmPoolSeed, len(ds.Graph.NodesOfType("proc")), false)
		for i := 0; i < warmBatchPool; i++ {
			req := gen.next()
			body, _ := json.Marshal(req)
			if err := primeRequest(lb, "/batch", body); err != nil {
				return e, err
			}
			e.pool = append(e.pool, req)
		}
		return e, nil
	}, func(e env) { e.lb.close() })
	if err != nil {
		return nil, err
	}
	defer e.lb.close()

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	p := newPhase()
	before, err := e.lb.stats()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var keep []kept
	runtime.GC() // setup garbage is not the timed phase's cost
	p.mem0 = readMem()
	start := time.Now()
	err = closedLoop(maxConns, measure, func(client int) func() error {
		stream := newWarmStream(cfg.seed, client, e.nodes, e.pool)
		pick := rand.New(rand.NewSource(cfg.seed*31 + int64(client)))
		return func() error {
			path, search, batch := stream.next()
			var body []byte
			if search != nil {
				body, _ = json.Marshal(search)
			} else {
				body, _ = json.Marshal(batch)
			}
			rep, err := e.lb.post(path, body)
			if err != nil {
				return err
			}
			kind, n := "search", 1
			if batch != nil {
				kind, n = "batch", len(batch.Queries)
			}
			mu.Lock()
			defer mu.Unlock()
			p.record(kind, rep)
			o.attempted += n
			if rep.status != http.StatusOK {
				o.failed += n
				o.problem("%s answered %d: %s", path, rep.status, rep.body)
				return nil
			}
			p.queries += n
			if pick.Intn(checkEvery) == 0 && len(keep) < maxChecks {
				keep = append(keep, kept{search: search, batch: batch, body: rep.body})
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	p.elapsed = time.Since(start)
	p.mem = readMem()
	after, err := e.lb.stats()
	if err != nil {
		return nil, err
	}
	p.counters = countersOf(after).since(countersOf(before))
	p.entries = float64(after.Cache.Size)
	heap := heapMB()
	if p.counters[cProducts] != 0 {
		o.problem("warm-search made %v products in its timed phase, want 0", p.counters[cProducts])
	}

	view, version := e.st.View()
	ref := newReference(view, version, e.ds.Schema)
	for _, k := range keep {
		checkKept(o, ref, k)
	}
	o.note("warm-search: %d answers checked", len(keep))

	if !cfg.trace {
		endToEnd(o, p, setupS, "search", heap)
		return o, nil
	}
	reportLatency(o, "search", p.lat["search"])

	// Traced replay of client 0's request sequence on the server's warm
	// cache.
	r := newReplayer(e.ds.Schema)
	ev := r.evaluator(view, version, e.srv.Cache())
	stream := newWarmStream(cfg.seed, 0, e.nodes, e.pool)
	start = time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < measure; n++ {
		r.tr.op = n
		_, search, batch := stream.next()
		if batch != nil {
			id := r.tr.begin("bench.batch")
			_, err = r.batch(ev, batch)
			r.tr.end(id)
		} else {
			id := r.tr.begin("bench.search")
			var resp *server.SearchResponse
			resp, err = r.score(ev, search)
			r.encode(resp)
			r.tr.end(id)
		}
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	perLayer(o, p, r, "bench.search", 0)
	return o, r.tr.write(filepath.Join(".bench_build", fmt.Sprintf("spans-warm-search-%d.json", cfg.seed)))
}

// primeRequest sends one setup request and requires a 200.
func primeRequest(lb *loopback, path string, body []byte) error {
	rep, err := lb.post(path, body)
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("priming %s answered %d: %s", path, rep.status, rep.body)
	}
	return nil
}

// checkKept checks one sampled answer against the reference.
func checkKept(o *outcome, ref *reference, k kept) {
	if k.batch != nil {
		var resp server.BatchResponse
		if err := json.Unmarshal(k.body, &resp); err != nil {
			o.problem("decode /batch: %v", err)
			return
		}
		checkBatch(o, ref, k.batch, &resp)
		return
	}
	var resp server.SearchResponse
	if err := json.Unmarshal(k.body, &resp); err != nil {
		o.problem("decode /search: %v", err)
		return
	}
	if err := ref.check(k.search, &resp); err != nil {
		o.failed++
		o.problem("wrong answer: %v", err)
	}
}

// closedLoop runs n clients until d has passed; each client calls its
// step function, which sends one request and waits for the reply, back
// to back. It returns the first error and waits for every client.
func closedLoop(n int, d float64, client func(i int) func() error) error {
	deadline := time.Now().Add(time.Duration(d * float64(time.Second)))
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		step := client(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := step(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}
