package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"relsim/internal/server"
	"relsim/internal/sparse"
)

// requests renders the first requests of every workload generator for
// one seed as JSON.
func requests(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	emit := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	gen := newOverlapGen(seed, 160, true)
	for i := 0; i < 3; i++ {
		emit(gen.next())
	}
	g := dblp1x().Graph
	nodes := map[string][]string{}
	for i, sp := range searchPatterns {
		nodes[sp.typ] = queryNodes(g, sp.typ, warmNodes, seed+int64(i))
	}
	pool := []server.BatchRequest{{Queries: []server.SearchRequest{{Pattern: "w.w-", Query: "author1"}}}}
	ws := newWarmStream(seed, 1, nodes, pool)
	for i := 0; i < 50; i++ {
		path, search, batch := ws.next()
		emit(path)
		emit(search)
		emit(batch)
	}
	w := newEdgeWriter(g, seed)
	h := newHotBatches(g, seed)
	for i := 0; i < 50; i++ {
		req, ack := w.next()
		ack()
		emit(req)
		emit(h.next())
	}
	return buf.Bytes()
}

func TestSeedGivesIdenticalRequests(t *testing.T) {
	a, b := requests(t, 5), requests(t, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different requests")
	}
	if bytes.Equal(a, requests(t, 6)) {
		t.Fatal("different seeds generated identical requests")
	}
}

// parseBase recovers the base of a rendered overlap pattern
// "(a + b + c).s1.s2".
func parseBase(t *testing.T, pat string) overlapBase {
	t.Helper()
	alt, rest, ok := strings.Cut(strings.TrimPrefix(pat, "("), ").")
	suffix := strings.Split(rest, ".")
	if !ok || len(suffix) != 2 {
		t.Fatalf("pattern %q is not an overlap base", pat)
	}
	return overlapBase{branches: strings.Split(alt, " + "), suffix: suffix}
}

func TestOverlapBatchShape(t *testing.T) {
	for _, heavy := range []bool{true, false} {
		gen := newOverlapGen(11, 160, heavy)
		for n := 0; n < 20; n++ {
			req := gen.next()
			if len(req.Queries) != overlapQueries {
				t.Fatalf("batch %d has %d queries", n, len(req.Queries))
			}
			annotated, heavies := 0, 0
			for _, q := range req.Queries {
				b := parseBase(t, q.Pattern)
				if b.heavy() {
					heavies++
					if !b.forcedHeavy() {
						t.Fatalf("batch %d: %q is a heavy base of the wrong family", n, q.Pattern)
					}
				}
				if q.Annotate != "" {
					annotated++
					if b.denseHop() {
						t.Fatalf("batch %d: annotated query on dense-hop base %q", n, q.Pattern)
					}
				}
			}
			if want := map[bool]int{true: 1, false: 0}[heavy]; heavies != want {
				t.Fatalf("heavy=%v batch %d has %d heavy queries, want %d", heavy, n, heavies, want)
			}
			if annotated != overlapAnnotated {
				t.Fatalf("batch %d has %d annotated queries, want %d", n, annotated, overlapAnnotated)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted input
	}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {50.5, 51}, {99, 99}, {99.5, 100}, {100, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 4 samples = %v, want the lower middle 2", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{999, 99, false}, {1000, 99, true}, {19, 50, false}, {20, 50, true}, {10, 50, false}} {
		if got := tailReportable(c.n, c.p); got != c.want {
			t.Errorf("tailReportable(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestFlopBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		dense := func() ([][]int64, *sparse.Matrix) {
			d := make([][]int64, n)
			var ts []sparse.Triple
			for i := range d {
				d[i] = make([]int64, n)
				for j := range d[i] {
					if rng.Intn(3) == 0 {
						d[i][j] = 1 + rng.Int63n(4)
						ts = append(ts, sparse.Triple{Row: i, Col: j, Val: d[i][j]})
					}
				}
			}
			return d, sparse.New(n, ts)
		}
		da, a := dense()
		db, b := dense()
		var want int64
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				for j := 0; j < n; j++ {
					if da[i][k] != 0 && db[k][j] != 0 {
						want++
					}
				}
			}
		}
		if got := flopBound(a, b); got != want {
			t.Fatalf("trial %d (n=%d): flopBound = %d, brute force %d", trial, n, got, want)
		}
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming(`expand;dur=0.12, plan;dur=0.40,materialize;desc="x";dur=183.26, cache, bad;dur=x, total;dur="3.2"`)
	want := map[string]float64{"expand": 0.12, "plan": 0.40, "materialize": 183.26, "total": 3.2}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(parseServerTiming("")) != 0 {
		t.Error("empty header parsed to entries")
	}
}
