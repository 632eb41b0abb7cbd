package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/graph"
	"relsim/internal/schema"
	"relsim/internal/server"
	"relsim/internal/store"
	"relsim/internal/wal"
)

const (
	wrNodeEvery = 10 // every 10th commit adds a paper node with its w edges
	wrNodes     = 8  // query nodes per hot pattern
	wrPerBatch  = 2  // queries per hot pattern in a reader batch
)

// edgeWriter generates seeded mutation batches on label w that never
// fail: it tracks the w edges the store holds, adds only absent ones
// and removes only present ones.
type edgeWriter struct {
	rng     *rand.Rand
	n       int
	authors []string
	papers  []string
	has     map[[2]int]bool
	list    [][2]int // the pairs in has, for uniform removal
	pos     map[[2]int]int
}

func newEdgeWriter(g *graph.Graph, seed int64) *edgeWriter {
	w := &edgeWriter{rng: rand.New(rand.NewSource(seed*104729 + 1)), has: map[[2]int]bool{}, pos: map[[2]int]int{}}
	paperIdx := map[graph.NodeID]int{}
	for _, id := range g.NodesOfType("paper") {
		paperIdx[id] = len(w.papers)
		w.papers = append(w.papers, g.Node(id).Name)
	}
	for _, id := range g.NodesOfType("author") {
		a := len(w.authors)
		w.authors = append(w.authors, g.Node(id).Name)
		for _, p := range g.Out(id, "w") {
			w.insert([2]int{a, paperIdx[p]})
		}
	}
	return w
}

func (w *edgeWriter) insert(e [2]int) {
	w.has[e] = true
	w.pos[e] = len(w.list)
	w.list = append(w.list, e)
}

func (w *edgeWriter) remove(e [2]int) {
	i := w.pos[e]
	last := w.list[len(w.list)-1]
	w.list[i], w.pos[last] = last, i
	w.list = w.list[:len(w.list)-1]
	delete(w.pos, e)
	delete(w.has, e)
}

// next returns the next batch and the model update to apply once the
// store acknowledges it.
func (w *edgeWriter) next() (server.MutationRequest, func()) {
	w.n++
	var req server.MutationRequest
	if w.n%wrNodeEvery == 0 {
		name := fmt.Sprintf("benchpaper%d", w.n)
		p := len(w.papers)
		req.AddNodes = []server.NodeSpec{{Name: name, Type: "paper"}}
		var adds [][2]int
		for _, a := range w.rng.Perm(len(w.authors))[:1+w.rng.Intn(3)] {
			adds = append(adds, [2]int{a, p})
			req.Add = append(req.Add, server.EdgeSpec{From: w.authors[a], Label: "w", To: name})
		}
		return req, func() {
			w.papers = append(w.papers, name)
			for _, e := range adds {
				w.insert(e)
			}
		}
	}
	touched := map[[2]int]bool{}
	var adds, dels [][2]int
	for k := 1 + w.rng.Intn(4); k > 0; k-- {
		if w.rng.Intn(2) == 0 {
			e := [2]int{w.rng.Intn(len(w.authors)), w.rng.Intn(len(w.papers))}
			if w.has[e] || touched[e] {
				continue
			}
			touched[e] = true
			adds = append(adds, e)
			req.Add = append(req.Add, server.EdgeSpec{From: w.authors[e[0]], Label: "w", To: w.papers[e[1]]})
		} else {
			e := w.list[w.rng.Intn(len(w.list))]
			if touched[e] {
				continue
			}
			touched[e] = true
			dels = append(dels, e)
			req.Remove = append(req.Remove, server.EdgeSpec{From: w.authors[e[0]], Label: "w", To: w.papers[e[1]]})
		}
	}
	if len(adds)+len(dels) == 0 { // every draw collided: remove one edge
		e := w.list[w.rng.Intn(len(w.list))]
		dels = append(dels, e)
		req.Remove = append(req.Remove, server.EdgeSpec{From: w.authors[e[0]], Label: "w", To: w.papers[e[1]]})
	}
	return req, func() {
		for _, e := range adds {
			w.insert(e)
		}
		for _, e := range dels {
			w.remove(e)
		}
	}
}

// apply commits req inside a store transaction, as the /graph/edges
// handler does.
func apply(tx *store.Tx, req *server.MutationRequest) error {
	for _, ns := range req.AddNodes {
		tx.AddNode(ns.Name, ns.Type)
	}
	resolve := func(name string) (graph.NodeID, error) {
		n, ok := tx.NodeByName(name)
		if !ok {
			return 0, fmt.Errorf("node %q not found", name)
		}
		return n.ID, nil
	}
	for i, list := range [][]server.EdgeSpec{req.Add, req.Remove} {
		for _, es := range list {
			u, err := resolve(es.From)
			if err != nil {
				return err
			}
			v, err := resolve(es.To)
			if err != nil {
				return err
			}
			if i == 0 {
				err = tx.AddEdge(u, es.Label, v)
			} else {
				err = tx.RemoveEdge(u, es.Label, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// hotBatches is the reader's seeded sequence of warm /batch requests.
type hotBatches struct {
	rng   *rand.Rand
	nodes [][]string
}

func newHotBatches(g *graph.Graph, seed int64) *hotBatches {
	h := &hotBatches{rng: rand.New(rand.NewSource(seed*15485863 + 2))}
	for i, hp := range hotPatterns {
		h.nodes = append(h.nodes, queryNodes(g, hp.typ, wrNodes, seed+int64(100+i)))
	}
	return h
}

func (h *hotBatches) next() server.BatchRequest {
	var req server.BatchRequest
	for i, hp := range hotPatterns {
		for k := 0; k < wrPerBatch; k++ {
			req.Queries = append(req.Queries, server.SearchRequest{
				Pattern: hp.pattern, Query: h.nodes[i][h.rng.Intn(len(h.nodes[i]))], Type: hp.typ, Alg: "relsim", Top: 10,
			})
		}
	}
	return req
}

// keptRead is one sampled reader batch and its answer.
type keptRead struct {
	req  server.BatchRequest
	resp server.BatchResponse
}

// checkReads rebuilds every version the sampled reads were served at —
// the writer's sequence is a function of the seed, so replaying its
// first commits batches into a fresh in-memory store over the same
// fixture reproduces the served versions — and checks each read there.
func checkReads(o *outcome, seed int64, commits int, keep []keptRead, sc *schema.Schema) error {
	byVersion := map[uint64][]keptRead{}
	for _, k := range keep {
		byVersion[k.resp.Version] = append(byVersion[k.resp.Version], k)
	}
	ds := dblp1x()
	st := store.New(ds.Graph)
	w := newEdgeWriter(ds.Graph, seed)
	for i := 0; i < commits; i++ {
		req, ack := w.next()
		if err := st.Update(func(tx *store.Tx) error { return apply(tx, &req) }); err != nil {
			return fmt.Errorf("rebuild commit %d: %w", i, err)
		}
		ack()
		view, v := st.View()
		for _, k := range byVersion[v] {
			checkBatch(o, newReference(view, v, sc), &k.req, &k.resp)
		}
		delete(byVersion, v)
	}
	for v := range byVersion {
		o.problem("a read was served at version %d, which no acknowledged commit produced", v)
	}
	return nil
}

// durableOpts are relsim-serve's durable-store defaults: fsync=always
// and the default checkpoint cadence, segment size and log retention.
func durableOpts(g *graph.Graph) []store.OpenOption {
	return []store.OpenOption{store.WithSeed(g), store.WithSync(wal.SyncAlways)}
}

type wrEnv struct {
	ds  datasets.Dataset
	dir string
	st  *store.Store
	srv *server.Server
	lb  *loopback
}

func (e *wrEnv) close() {
	if e.lb != nil {
		e.lb.close()
	}
	if e.st != nil {
		e.st.Close()
	}
}

// runWriteRead: a durable store (fsync=always) over dblp-small. One
// writer commits seeded 1–4-edge batches on label w through
// /graph/edges; one reader sends warm /batch requests over five
// patterns that touch w and one that does not.
func runWriteRead(cfg config) (*outcome, error) {
	o := &outcome{}
	setups := 9
	if cfg.trace {
		setups = 1
	}
	n := 0
	setupS, e, err := setupTimes(setups, func() (*wrEnv, error) {
		n++
		e := &wrEnv{ds: dblp1x(), dir: filepath.Join(cfg.dir, fmt.Sprintf("store-%d", n))}
		var err error
		if e.st, err = store.Open(e.dir, durableOpts(e.ds.Graph)...); err != nil {
			return e, err
		}
		e.srv = newServer(e.st, e.ds)
		if e.lb, err = startLoopback(e.srv); err != nil {
			return e, err
		}
		prime := newHotBatches(e.ds.Graph, cfg.seed).next()
		body, _ := json.Marshal(prime)
		return e, primeRequest(e.lb, "/batch", body)
	}, func(e *wrEnv) {
		e.close()
		os.RemoveAll(e.dir)
	})
	if err != nil {
		return nil, err
	}
	defer e.close()

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	p := newPhase()
	writer := newEdgeWriter(e.ds.Graph, cfg.seed)
	reader := newHotBatches(e.ds.Graph, cfg.seed)
	pick := rand.New(rand.NewSource(cfg.seed*31 + 7))
	// Sampled reads are checked after the run against versions rebuilt
	// by replaying the writer's sequence, so the benchmark holds no old
	// versions while it measures.
	var keep []keptRead
	var mu sync.Mutex
	var lastAck uint64
	// The writer and the reader take turns: the reader reads each
	// acknowledged version once, and the writer commits the next batch
	// once that read is answered. A read that overlapped the next
	// commit's maintenance would time CPU contention, not the cache.
	fresh, readDone := make(chan struct{}, 1), make(chan struct{}, 1)
	readDone <- struct{}{}

	before, err := e.lb.stats()
	if err != nil {
		return nil, err
	}
	wal0, err := e.lb.metric("relsim_wal_appended_bytes_total")
	if err != nil {
		return nil, err
	}
	runtime.GC() // setup garbage is not the timed phase's cost
	p.mem0 = readMem()
	start := time.Now()
	err = closedLoop(maxConns, measure, func(client int) func() error {
		if client == 0 {
			return func() error {
				select {
				case <-readDone:
				case <-time.After(50 * time.Millisecond):
					return nil // let the loop check its deadline
				}
				req, ack := writer.next()
				body, _ := json.Marshal(req)
				rep, err := e.lb.post("/graph/edges", body)
				if err != nil {
					return err
				}
				var mr server.MutationResponse
				if rep.status == http.StatusOK {
					err = json.Unmarshal(rep.body, &mr)
				}
				if rep.status == http.StatusOK && err == nil {
					ack()
				}
				mu.Lock()
				defer mu.Unlock()
				p.record("commit", rep)
				o.attempted++
				if rep.status != http.StatusOK || err != nil {
					o.failed++
					o.problem("commit answered %d: %s", rep.status, rep.body)
					return nil
				}
				p.commits++
				lastAck = mr.Version
				select {
				case fresh <- struct{}{}:
				default:
				}
				return nil
			}
		}
		return func() error {
			select {
			case <-fresh:
			case <-time.After(50 * time.Millisecond):
				return nil // no new commit: let the loop check its deadline
			}
			req := reader.next()
			body, _ := json.Marshal(req)
			rep, err := e.lb.post("/batch", body)
			if err != nil {
				return err
			}
			select {
			case readDone <- struct{}{}:
			default:
			}
			mu.Lock()
			defer mu.Unlock()
			p.record("batch", rep)
			o.attempted += len(req.Queries)
			var resp server.BatchResponse
			if rep.status != http.StatusOK || json.Unmarshal(rep.body, &resp) != nil {
				o.failed += len(req.Queries)
				o.problem("/batch answered %d: %s", rep.status, rep.body)
				return nil
			}
			p.queries += len(req.Queries)
			if pick.Intn(checkEvery) == 0 && len(keep) < maxChecks {
				keep = append(keep, keptRead{req, resp})
			}
			return nil
		}
	})
	p.elapsed = time.Since(start)
	p.mem = readMem()
	if err != nil {
		return nil, err
	}
	after, err := e.lb.stats()
	if err != nil {
		return nil, err
	}
	wal1, err := e.lb.metric("relsim_wal_appended_bytes_total")
	if err != nil {
		return nil, err
	}
	p.counters = countersOf(after).since(countersOf(before))
	p.entries = float64(after.Cache.Size)
	p.pinSpread = float64(after.Pins.Spread)
	p.walBytes = wal1 - wal0

	heap := heapMB()
	if err := checkReads(o, cfg.seed, p.commits, keep, e.ds.Schema); err != nil {
		return nil, err
	}
	if cfg.trace {
		reportLatency(o, "commit", p.lat["commit"])
		if err := replayWriteRead(o, cfg, e, p, writer, reader); err != nil {
			return nil, err
		}
		lastAck = e.st.Version()
	} else {
		endToEnd(o, p, setupS, "commit", heap)
	}

	// Shape over the whole run, the traced replay's commits included.
	final, err := e.lb.stats()
	if err != nil {
		return nil, err
	}
	c := countersOf(final).since(countersOf(before))
	if c[cCheckpoints] < 2 {
		o.problem("write-read crossed %v checkpoints, want at least 2", c[cCheckpoints])
	}
	if c[cDeltaMaintained] == 0 || c[cDeltaMaintained] < 0.9*c[cDeltaRoots] {
		o.problem("write-read maintained %v of %v stale patterns: touched patterns were evicted, not maintained",
			c[cDeltaMaintained], c[cDeltaRoots])
	}
	o.note("write-read: %d commits timed, %d reads checked, %v checkpoints, %v of %v stale patterns maintained",
		p.commits, len(keep), c[cCheckpoints], c[cDeltaMaintained], c[cDeltaRoots])
	if err := checkDurability(o, e, reader, lastAck); err != nil {
		return nil, err
	}
	return o, nil
}

// replayWriteRead alternates traced commits through (*store.Store).Update
// — which runs the server's delta maintenance on commit — with traced
// reader batches at the new version, on the live server's cache.
func replayWriteRead(o *outcome, cfg config, e *wrEnv, p *phase, writer *edgeWriter, reader *hotBatches) error {
	r := newReplayer(e.ds.Schema)
	delta0 := e.srv.Stats().Delta.Products
	start := time.Now()
	measure := cfg.seconds / 2
	for n := 0; n == 0 || time.Since(start).Seconds() < measure; n++ {
		r.tr.op = n
		req, ack := writer.next()
		id := r.tr.begin("store.update")
		err := e.st.Update(func(tx *store.Tx) error { return apply(tx, &req) })
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("replay commit: %w", err)
		}
		ack()
		batch := reader.next()
		pin := e.st.Pin()
		id = r.tr.begin("bench.batch")
		_, err = r.batch(r.evaluator(pin.View(), pin.Version(), e.srv.Cache()), &batch)
		r.tr.end(id)
		pin.Release()
		if err != nil {
			return fmt.Errorf("replay batch: %w", err)
		}
	}
	perLayer(o, p, r, "store.update", float64(e.srv.Stats().Delta.Products-delta0))
	return r.tr.write(filepath.Join(".bench_build", fmt.Sprintf("spans-write-read-%d.json", cfg.seed)))
}

// checkDurability closes the store, reopens its directory and requires
// the recovered version to be the last acknowledged commit and a fixed
// /search to answer exactly as before the close.
func checkDurability(o *outcome, e *wrEnv, reader *hotBatches, lastAck uint64) error {
	q := server.SearchRequest{Pattern: hotPatterns[0].pattern, Query: reader.nodes[0][0], Type: hotPatterns[0].typ, Alg: "search"}
	body, _ := json.Marshal(q)
	rep, err := e.lb.post("/search", body)
	if err != nil {
		return err
	}
	e.close()
	st, err := store.Open(e.dir, durableOpts(e.ds.Graph)...)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	e.st, e.srv = st, newServer(st, e.ds)
	if e.lb, err = startLoopback(e.srv); err != nil {
		return err
	}
	if v := st.Version(); v != lastAck {
		o.problem("reopened store recovered version %d, last acknowledged commit was %d", v, lastAck)
	}
	rep2, err := e.lb.post("/search", body)
	if err != nil {
		return err
	}
	var a, b server.SearchResponse
	if rep.status != http.StatusOK || rep2.status != http.StatusOK ||
		json.Unmarshal(rep.body, &a) != nil || json.Unmarshal(rep2.body, &b) != nil {
		o.problem("durability /search answered %d before and %d after reopening", rep.status, rep2.status)
		return nil
	}
	same := a.Version == b.Version && len(a.Results) == len(b.Results)
	for i := 0; same && i < len(a.Results); i++ {
		same = a.Results[i].ID == b.Results[i].ID && a.Results[i].Score == b.Results[i].Score
	}
	if !same {
		o.problem("/search after reopening differs from the answer before the close")
	}
	return nil
}
