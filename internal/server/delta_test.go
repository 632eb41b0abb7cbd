package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"relsim/internal/store"
)

// TestDeltaMaintenanceDifferential is the serving-path half of the
// harness that locked incremental maintenance in: two servers over
// identical graphs — one maintaining cached matrices across commits,
// one on the pure evict-on-write lifecycle — receive the same seeded
// interleaving of mutation batches and read workloads, and every
// response must match byte for byte. Mutations mix edge additions,
// removals of edges known to be present (so whole batches never roll
// back and removals are really exercised), and node additions, which
// grow the matrix dimension mid-stream.
func TestDeltaMaintenanceDifferential(t *testing.T) {
	maintained := New(store.New(testGraph()), nil)
	evicting := New(store.New(testGraph()), nil, func(c *Config) { c.DeltaMaintenance = false })

	rng := rand.New(rand.NewSource(131))
	nodes := []string{"p1", "p2", "p3", "p4", "a1", "a2", "a3"}
	labels := []string{"by", "cites"}
	// present tracks edge multiplicity so removals always target a live
	// edge on both servers.
	present := []EdgeSpec{
		{From: "p1", Label: "by", To: "a1"},
		{From: "p1", Label: "by", To: "a2"},
		{From: "p2", Label: "by", To: "a1"},
		{From: "p2", Label: "by", To: "a2"},
		{From: "p3", Label: "by", To: "a3"},
		{From: "p4", Label: "by", To: "a2"},
		{From: "p1", Label: "cites", To: "p3"},
	}

	const rounds = 120
	var removals, nodeAdds int
	for round := 0; round < rounds; round++ {
		var mreq MutationRequest
		if rng.Intn(6) == 0 {
			name := fmt.Sprintf("x%d", round)
			typ := []string{"paper", "author"}[rng.Intn(2)]
			mreq.AddNodes = append(mreq.AddNodes, NodeSpec{Name: name, Type: typ})
			nodes = append(nodes, name)
			nodeAdds++
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			if rng.Intn(5) < 3 || len(present) == 0 {
				e := EdgeSpec{
					From:  nodes[rng.Intn(len(nodes))],
					Label: labels[rng.Intn(len(labels))],
					To:    nodes[rng.Intn(len(nodes))],
				}
				mreq.Add = append(mreq.Add, e)
				present = append(present, e)
			} else {
				j := rng.Intn(len(present))
				mreq.Remove = append(mreq.Remove, present[j])
				present = append(present[:j], present[j+1:]...)
				removals++
			}
		}

		codeM, bodyM := doJSON(t, maintained, "/graph/edges", mreq)
		codeE, bodyE := doJSON(t, evicting, "/graph/edges", mreq)
		if codeM != http.StatusOK || codeE != http.StatusOK {
			t.Fatalf("round %d: mutation status maintained=%d evicting=%d (%s / %s)",
				round, codeM, codeE, bodyM, bodyE)
		}
		if !bytes.Equal(bodyM, bodyE) {
			t.Fatalf("round %d: mutation responses diverge\nmaintained: %s\nevicting:   %s", round, bodyM, bodyE)
		}

		req := randWorkload(rng)
		codeM, bodyM = doJSON(t, maintained, "/batch", req)
		codeE, bodyE = doJSON(t, evicting, "/batch", req)
		if codeM != http.StatusOK || codeE != http.StatusOK {
			t.Fatalf("round %d: batch status maintained=%d evicting=%d", round, codeM, codeE)
		}
		if !bytes.Equal(bodyM, bodyE) {
			t.Fatalf("round %d: maintained and evicting servers diverge\nrequest: %+v\nmaintained: %s\nevicting:   %s",
				round, req, bodyM, bodyE)
		}
	}

	if removals == 0 || nodeAdds == 0 {
		t.Fatalf("weak interleaving: %d removals, %d node additions", removals, nodeAdds)
	}
	ds := maintained.Stats().Delta
	if ds.Commits != rounds {
		t.Errorf("maintained server ran delta on %d commits, want %d", ds.Commits, rounds)
	}
	if ds.Maintained == 0 {
		t.Error("maintained server never patched a cached pattern forward")
	}
	if off := evicting.Stats().Delta; off.Commits != 0 {
		t.Errorf("delta-off server ran maintenance on %d commits, want 0", off.Commits)
	}
}

// TestDeltaMaintenanceConsistentUnderConcurrentWrites (run under -race)
// hammers the maintained cache from both sides at once: writers flip
// edges and occasionally add nodes while /batch readers assert MVCC
// consistency — every result in a batch carries the batch's single
// pinned version and exact duplicate queries agree. Maintenance runs on
// the writer's goroutine against the same cache the readers hit, so
// this is where a locking mistake in Maintain would surface.
func TestDeltaMaintenanceConsistentUnderConcurrentWrites(t *testing.T) {
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
			if i%8 == 0 {
				post(t, ts, "/graph/edges", MutationRequest{
					AddNodes: []NodeSpec{{Name: fmt.Sprintf("w%d", i), Type: "paper"}},
				}, &mut)
			}
		}
	}()

	q := SearchRequest{Pattern: "by.by- + cites", Query: "p1", Type: "paper"}
	req := BatchRequest{Workers: 4, Queries: []SearchRequest{q, q, q, q}}
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
				t.Fatalf("round %d result %d: version %d != batch version %d",
					round, i, res.Version, resp.Version)
			}
			if !reflect.DeepEqual(res.Results, resp.Results[0].Results) {
				t.Fatalf("round %d: duplicate query %d disagrees:\n%+v\n%+v",
					round, i, res.Results, resp.Results[0].Results)
			}
		}
	}
	close(stop)
	wg.Wait()
}
