package eval

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"relsim/internal/graph"
	"relsim/internal/rre"
)

// starFreePattern builds a random RRE without Kleene star (whose
// enumerated instance count must equal CountInstances exactly).
func starFreePattern(rng *rand.Rand, labels []string, depth int) *rre.Pattern {
	if depth <= 0 {
		l := rre.Label(labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			return rre.Rev(l)
		}
		return l
	}
	switch rng.Intn(6) {
	case 0:
		return rre.Concat(starFreePattern(rng, labels, depth-1), starFreePattern(rng, labels, depth-1))
	case 1:
		return rre.Alt(starFreePattern(rng, labels, depth-1), starFreePattern(rng, labels, depth-1))
	case 2:
		return rre.Skip(starFreePattern(rng, labels, depth-1))
	case 3:
		return rre.Nest(starFreePattern(rng, labels, depth-1))
	default:
		return starFreePattern(rng, labels, 0)
	}
}

// TestInstancesCountMatches: for star-free patterns, the number of
// enumerated instances equals the commuting-matrix count.
func TestInstancesCountMatches(t *testing.T) {
	labels := []string{"a", "b"}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		g := randomGraph(rng, n, rng.Intn(8), labels)
		ev := New(g)
		p := starFreePattern(rng, labels, 1+rng.Intn(2))
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := ev.CountInstances(p, graph.NodeID(u), graph.NodeID(v))
				got := ev.Instances(p, graph.NodeID(u), graph.NodeID(v), 0)
				if int64(len(got)) != want {
					t.Fatalf("trial %d: pattern %s: enumerated %d instances of (%d,%d), count says %d",
						trial, p, len(got), u, v, want)
				}
			}
		}
	}
}

func TestInstancesSequenceShape(t *testing.T) {
	g, names := paperGraph()
	ev := New(g)
	p := rre.MustParse("area.pub-in")
	// SimilarityMining -area→ DM? No: area edges point paper→area; the
	// instance goes paper -area→ area... choose the valid chain
	// pub-in: SimilarityMining -pub-in→ VLDB.
	ins := ev.Instances(rre.MustParse("pub-in"), names["SimilarityMining"], names["VLDB"], 0)
	if len(ins) != 1 {
		t.Fatalf("instances = %d, want 1", len(ins))
	}
	seq := ins[0].Seq
	if len(seq) != 3 || seq[1] != "pub-in" {
		t.Errorf("sequence = %v", seq)
	}
	// Concatenated instance: paper -area→ DM joined backwards etc.; use
	// area-.pub-in from an area to a conference.
	ins2 := ev.Instances(rre.MustParse("area-.pub-in"), names["DM"], names["VLDB"], 0)
	if len(ins2) == 0 {
		t.Fatal("no instances of area-.pub-in DM→VLDB")
	}
	for _, in := range ins2 {
		if len(in.Seq) != 5 {
			t.Errorf("sequence %v should have 5 entries (3 nodes, 2 labels)", in.Seq)
		}
		if !strings.HasSuffix(in.Seq[1], "-") {
			t.Errorf("first step %q should be a reversed label", in.Seq[1])
		}
	}
	_ = p
}

func TestInstancesSkipCollapses(t *testing.T) {
	g, names := paperGraph()
	ev := New(g)
	p := rre.MustParse("<area-.pub-in>")
	ins := ev.Instances(p, names["DM"], names["VLDB"], 0)
	if len(ins) != 1 {
		t.Fatalf("skip instances = %d, want exactly 1", len(ins))
	}
	if len(ins[0].Seq) != 3 {
		t.Errorf("skip sequence = %v, want 3 entries", ins[0].Seq)
	}
	if !strings.Contains(ins[0].Seq[1], "area-.pub-in") {
		t.Errorf("skip step should record the stripped pattern, got %q", ins[0].Seq[1])
	}
}

func TestInstancesNestMarker(t *testing.T) {
	g, names := paperGraph()
	ev := New(g)
	p := rre.MustParse("[pub-in]")
	ins := ev.Instances(p, names["SimilarityMining"], names["SimilarityMining"], 0)
	if len(ins) != 1 {
		t.Fatalf("nest instances = %d, want 1", len(ins))
	}
	seq := ins[0].Seq
	if seq[len(seq)-2] != "↩" {
		t.Errorf("nested instance must end with the jump-back marker: %v", seq)
	}
}

func TestInstancesLimit(t *testing.T) {
	g, names := paperGraph()
	ev := New(g)
	// DM has three incoming area edges → three instances of area-.
	all := ev.Instances(rre.MustParse("area-"), names["DM"], names["CodeMining"], 0)
	_ = all
	p := rre.MustParse("area.area-")
	full := ev.Instances(p, names["PatternMining"], names["PatternMining"], 0)
	if len(full) < 2 {
		t.Fatalf("expected multiple self instances, got %d", len(full))
	}
	capped := ev.Instances(p, names["PatternMining"], names["PatternMining"], 1)
	if len(capped) != 1 {
		t.Errorf("limit ignored: %d", len(capped))
	}
}

// TestInstancesLimitIsPrefix: a limited enumeration returns exactly
// the first limit instances of the unlimited one, for every operator.
func TestInstancesLimitIsPrefix(t *testing.T) {
	labels := []string{"a", "b"}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode("", "")
		}
		for i := rng.Intn(4 * n); i > 0; i-- {
			g.AddEdge(graph.NodeID(rng.Intn(n)), labels[rng.Intn(2)], graph.NodeID(rng.Intn(n)))
		}
		ev := New(g)
		p := randomPattern(rng, labels, 1+rng.Intn(3))
		for u := graph.NodeID(0); int(u) < n; u++ {
			for v := graph.NodeID(0); int(v) < n; v++ {
				all := ev.Instances(p, u, v, 0)
				for _, limit := range []int{1, 2, 3, 5, 8} {
					got := ev.Instances(p, u, v, limit)
					want := all[:min(limit, len(all))]
					if len(got) != len(want) {
						t.Fatalf("trial %d: %s (%d,%d) limit %d: %d instances, want %d", trial, p, u, v, limit, len(got), len(want))
					}
					for i := range got {
						if got[i].String() != want[i].String() {
							t.Fatalf("trial %d: %s (%d,%d) limit %d: instance %d is %q, want %q", trial, p, u, v, limit, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestInstancesAllocationFlat: through one hub with k leaves,
// a.b.b-.b.b- has k² instances from the source to the hub; a limited
// enumeration must allocate the same whatever k is.
func TestInstancesAllocationFlat(t *testing.T) {
	p := rre.MustParse("a.b.b-.b.b-")
	allocated := func(k int) uint64 {
		g := graph.New()
		src, hub := g.AddNode("", ""), g.AddNode("", "")
		g.AddEdge(src, "a", hub)
		for i := 0; i < k; i++ {
			g.AddEdge(hub, "b", g.AddNode("", ""))
		}
		ev := New(g)
		if got := len(ev.Instances(p, src, hub, 10)); got != 10 { // warms the cache
			t.Fatalf("k=%d: %d instances, want 10", k, got)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			ev.Instances(p, src, hub, 10)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 20
	}
	small, large := allocated(50), allocated(800)
	if large > small+small/2 {
		t.Fatalf("limit-10 enumeration allocates %d B at k=800 vs %d B at k=50", large, small)
	}
}

func TestInstancesStarWitness(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", "")
	b := g.AddNode("b", "")
	c := g.AddNode("c", "")
	g.AddEdge(a, "l", b)
	g.AddEdge(b, "l", c)
	ev := New(g)
	ins := ev.Instances(rre.MustParse("l*"), a, c, 0)
	if len(ins) != 1 {
		t.Fatalf("star witness count = %d, want 1", len(ins))
	}
	if len(ev.Instances(rre.MustParse("l*"), c, a, 0)) != 0 {
		t.Error("unreachable star instance must be absent")
	}
}

func TestInstanceString(t *testing.T) {
	in := Instance{Seq: []string{"0", "a", "1"}}
	if in.String() != "0 a 1" {
		t.Errorf("String = %q", in.String())
	}
}
