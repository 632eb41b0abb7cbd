package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"relsim/internal/datasets"
	"relsim/internal/store"
)

// TestWriteDuringBatchDoesNotChangeInFlightResults is the snapshot
// isolation regression test: a request's evaluator is bound to a pinned
// snapshot, so a write landing mid-flight (here: between two scoring
// passes of the same in-flight evaluation) must not change its results,
// while a fresh request sees the new version.
func TestWriteDuringBatchDoesNotChangeInFlightResults(t *testing.T) {
	srv := New(store.New(testGraph()), nil)

	pin := srv.st.Pin()
	defer pin.Release()
	ev := srv.evaluator(pin.Snapshot(), pin.Version())
	req := SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}

	before, err := srv.runSearch(ev, &req, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The write that previously required blocking this reader: give p3
	// the same authors as p1, which changes the by.by- ranking.
	err = srv.st.Update(func(tx *store.Tx) error {
		p3, _ := tx.NodeByName("p3")
		a1, _ := tx.NodeByName("a1")
		a2, _ := tx.NodeByName("a2")
		if err := tx.AddEdge(p3.ID, "by", a1.ID); err != nil {
			return err
		}
		return tx.AddEdge(p3.ID, "by", a2.ID)
	})
	if err != nil {
		t.Fatal(err)
	}

	after, err := srv.runSearch(ev, &req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("in-flight results changed across a concurrent write:\nbefore %+v\nafter  %+v", before, after)
	}
	for _, r := range after.Results {
		if r.Name == "p3" {
			t.Error("pinned evaluation sees the concurrent write")
		}
	}

	// A fresh request pins the new version and must see p3.
	pin2 := srv.st.Pin()
	defer pin2.Release()
	fresh, err := srv.runSearch(srv.evaluator(pin2.Snapshot(), pin2.Version()), &req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Version != 2 {
		t.Errorf("fresh version = %d, want 2", fresh.Version)
	}
	found := false
	for _, r := range fresh.Results {
		found = found || r.Name == "p3"
	}
	if !found {
		t.Errorf("fresh request misses the committed write: %+v", fresh.Results)
	}
}

// TestBatchInternallyConsistentUnderWrites hammers /batch (with each
// query duplicated) against concurrent mutations over HTTP: within one
// response every duplicate must be identical and every result must
// carry the batch's single pinned version.
func TestBatchInternallyConsistentUnderWrites(t *testing.T) {
	_, ts := newTestServer(t)
	const rounds = 20

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var mut MutationResponse
			add := MutationRequest{Add: []EdgeSpec{{From: "p3", Label: "by", To: "a1"}}}
			post(t, ts, "/graph/edges", add, &mut)
			post(t, ts, "/graph/edges", MutationRequest{Remove: add.Add}, &mut)
		}
	}()

	q := SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}
	req := BatchRequest{Workers: 4, Queries: []SearchRequest{q, q, q, q, q, q, q, q}}
	for round := 0; round < rounds; round++ {
		var resp BatchResponse
		if code := post(t, ts, "/batch", req, &resp); code != http.StatusOK {
			t.Fatalf("round %d: status %d", round, code)
		}
		for i, res := range resp.Results {
			if res.Error != "" {
				t.Fatalf("round %d result %d: %s", round, i, res.Error)
			}
			if res.Version != resp.Version {
				t.Fatalf("round %d result %d: version %d != batch version %d (snapshot not shared)",
					round, i, res.Version, resp.Version)
			}
			if !reflect.DeepEqual(res.Results, resp.Results[0].Results) {
				t.Fatalf("round %d: duplicate queries disagree within one batch:\n%+v\n%+v",
					round, res.Results, resp.Results[0].Results)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRequestTimeout: an expired deadline aborts evaluation with 504
// and bumps the timeout counter; ?timeout_ms= overrides per request.
func TestRequestTimeout(t *testing.T) {
	srv := New(store.New(testGraph()), nil, WithTimeout(time.Nanosecond))
	ts := newHTTPServer(t, srv)

	var e errorResponse
	if code := post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1"}, &e); code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %+v)", code, e)
	}
	if got := srv.Stats().Requests["timeouts"]; got != 1 {
		t.Errorf("timeouts counter = %d, want 1", got)
	}

	// A generous per-request override rescues the query.
	var ok SearchResponse
	if code := post(t, ts, "/search?timeout_ms=60000", SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}, &ok); code != http.StatusOK {
		t.Fatalf("override status = %d", code)
	}
	if len(ok.Results) == 0 || ok.Results[0].Name != "p2" {
		t.Errorf("override results = %+v", ok.Results)
	}

	// Bad overrides are rejected up front.
	for _, bad := range []string{"abc", "-5", "0"} {
		if code := post(t, ts, "/search?timeout_ms="+bad, SearchRequest{Pattern: "by.by-", Query: "p1"}, &e); code != http.StatusBadRequest {
			t.Errorf("timeout_ms=%s: status = %d, want 400", bad, code)
		}
	}
}

// TestBatchTimeout: a timed-out batch either aborts mid-plan (504,
// nothing scored) or reports the cancellation per query (200 with
// per-query errors from the scoring phase) — it never hangs or burns
// CPU past the deadline.
func TestBatchTimeout(t *testing.T) {
	srv := New(store.New(testGraph()), nil)
	ts := newHTTPServer(t, srv)
	req := BatchRequest{Queries: []SearchRequest{
		{Pattern: "by.by-", Query: "p1", Type: "paper"},
		{Pattern: "cites", Query: "p1", Alg: "relsim"},
	}}
	var resp BatchResponse
	code := post(t, ts, "/batch?timeout_ms=1", req, &resp)
	switch code {
	case http.StatusGatewayTimeout:
		// Deadline fired during the planning phase.
	case http.StatusOK:
		// Deadline fired (if at all) during scoring; with 1ms long
		// expired by decode time every query must carry the error.
		for _, r := range resp.Results {
			if r.Error == "" {
				t.Skip("batch finished before the deadline fired; timing-dependent")
			}
		}
	default:
		t.Fatalf("status = %d", code)
	}
	if got := srv.Stats().Requests["timeouts"]; got == 0 {
		t.Error("timeout counter not bumped")
	}
}

// TestMutationRollbackIsAtomic: a failing batch publishes nothing —
// not even the operations that succeeded before the failure.
func TestMutationRollbackIsAtomic(t *testing.T) {
	srv := New(store.New(testGraph()), nil)
	ts := newHTTPServer(t, srv)

	var mut MutationResponse
	code := post(t, ts, "/graph/edges", MutationRequest{
		AddNodes: []NodeSpec{{Name: "p9", Type: "paper"}},
		Add: []EdgeSpec{
			{From: "p9", Label: "by", To: "a1"},
			{From: "ghost", Label: "by", To: "a1"}, // fails
		},
	}, &mut)
	if code != http.StatusBadRequest || mut.Error == "" {
		t.Fatalf("status = %d, error = %q; want 400 with message", code, mut.Error)
	}
	if mut.Version != 0 {
		t.Errorf("rolled-back batch reports version %d, want 0", mut.Version)
	}
	if got := srv.st.Version(); got != 0 {
		t.Errorf("store version = %d after rollback, want 0", got)
	}
	var stats StatsResponse
	get(t, ts, "/stats", &stats)
	if stats.Store.Nodes != 7 || stats.Store.Edges != 7 {
		t.Errorf("rolled-back batch leaked state: %+v", stats.Store)
	}
	var e errorResponse
	if code := post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p9"}, &e); code != http.StatusBadRequest {
		t.Errorf("p9 resolvable after rollback (status %d)", code)
	}
}

// TestStatsPinsAndCacheVersions: /stats reports the pinned-version
// spread and per-version cache occupancy.
func TestStatsPinsAndCacheVersions(t *testing.T) {
	srv := New(store.New(testGraph()), nil)
	ts := newHTTPServer(t, srv)

	// Prime the cache at version 0, then hold a pin across a write.
	post(t, ts, "/search", SearchRequest{Pattern: "by.by-", Query: "p1", Type: "paper"}, &SearchResponse{})
	pin := srv.st.Pin()
	defer pin.Release()
	post(t, ts, "/graph/edges", MutationRequest{Add: []EdgeSpec{{From: "p1", Label: "cites", To: "p4"}}}, &MutationResponse{})

	var stats StatsResponse
	get(t, ts, "/stats", &stats)
	if stats.Pins.Live != 1 || stats.Pins.Readers != 1 || stats.Pins.Spread != 1 {
		t.Errorf("pins = %+v, want live 1, one reader pinned at 0 (spread 1)", stats.Pins)
	}
	if len(stats.Pins.Pinned) != 1 || stats.Pins.Pinned[0] != 0 {
		t.Errorf("pinned versions = %v, want [0]", stats.Pins.Pinned)
	}
	// The by-patterns were carried to version 1 by the cites write.
	if stats.CacheVersions[1] == 0 {
		t.Errorf("cache_versions = %v, want entries at version 1", stats.CacheVersions)
	}
	if stats.Cache.Versions == 0 {
		t.Errorf("cache stats = %+v", stats.Cache)
	}
}

// stormPattern composes a small RRE string over the dblp-small schema,
// mixing plain steps, reversals and a disjunction block.
func stormPattern(rng *rand.Rand) string {
	steps := []string{"w", "w-", "p-in", "p-in-", "r-a", "r-a-"}
	pick := func() string { return steps[rng.Intn(len(steps))] }
	switch rng.Intn(3) {
	case 0:
		return pick() + "." + pick()
	case 1:
		return "(" + pick() + " + " + pick() + ")." + pick()
	default:
		return pick() + "." + pick() + "." + pick()
	}
}

// TestMutateQueryStorm drives one server with concurrent node-adding
// writers, witness-annotated /search readers and /stats polls; run
// under -race it is the storm over the commit path, cache aging, delta
// maintenance and the annotated read path at once.
func TestMutateQueryStorm(t *testing.T) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(ds.Graph)
	srv := New(st, ds.Schema, func(c *Config) { c.Instrumentation = true })

	const writers, readers, iters = 3, 5, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("storm-%d-%d", w, i)
				req := MutationRequest{
					AddNodes: []NodeSpec{{Name: name, Type: "author"}},
					Add: []EdgeSpec{
						{From: name, Label: "w", To: fmt.Sprintf("paper%d", rng.Intn(100))},
					},
				}
				code, body := doJSON(t, srv, "/graph/edges", req)
				if code != http.StatusOK {
					t.Errorf("writer %d iter %d: %d %s", w, i, code, body)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + r)))
			for i := 0; i < iters; i++ {
				req := SearchRequest{
					Pattern: stormPattern(rng),
					Query:   fmt.Sprintf("proc%d", rng.Intn(80)),
					Type:    "proc",
					Alg:     "relsim",
					Top:     3,
				}
				if i%4 == 0 {
					req.Annotate = AnnotateWitness
				}
				code, body := doJSON(t, srv, "/search", req)
				if code != http.StatusOK {
					t.Errorf("reader %d iter %d: %d %s", r, i, code, body)
					return
				}
				if i%5 == 0 {
					gr := httptest.NewRequest(http.MethodGet, "/stats", nil)
					gw := httptest.NewRecorder()
					srv.ServeHTTP(gw, gr)
					if gw.Code != http.StatusOK {
						t.Errorf("reader %d: /stats %d", r, gw.Code)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// Each mutation batch carries two updates (node + edge).
	if got := st.Version(); got != uint64(2*writers*iters) {
		t.Fatalf("version %d after storm, want %d (two updates per mutation)", got, 2*writers*iters)
	}
}

// newHTTPServer wraps an already-constructed Server in httptest.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}
