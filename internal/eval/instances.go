package eval

import (
	"fmt"
	"strconv"
	"strings"

	"relsim/internal/graph"
	"relsim/internal/rre"
)

// Instance is one recorded RRE traversal (u, v, s) per the paper's §4.2
// instance semantics: the sequence alternates node ids with edge labels,
// pattern strings (for skip steps), or the "↩" marker for the jump back
// at the end of a nested traversal.
type Instance struct {
	From, To graph.NodeID
	Seq      []string
}

// String renders the instance sequence, e.g. "0 -a→ 3 -<b.c>→ 5".
func (in Instance) String() string {
	return strings.Join(in.Seq, " ")
}

// Render renders the instance for display, substituting node names for
// node-id entries where available. An entry is a node id only if the
// whole token parses as an integer — "12x" is a label, not node 12.
func (in Instance) Render(g graph.View) string {
	parts := make([]string, len(in.Seq))
	for i, s := range in.Seq {
		parts[i] = s
		if id, err := strconv.Atoi(s); err == nil && g.Has(graph.NodeID(id)) {
			if name := g.Node(graph.NodeID(id)).Name; name != "" {
				parts[i] = name
			}
		}
	}
	return strings.Join(parts, " → ")
}

// Instances enumerates up to limit instances of p from u to v,
// materializing the recorded traversal sequences. It is the "explain"
// counterpart of CountInstances: for star-free patterns the number of
// enumerated instances equals the instance count (Kleene star collapses
// to a single reachability witness, matching the boolean semantics of
// Commuting). A non-positive limit enumerates everything; a positive
// one returns the first limit instances of that enumeration, with
// memory bounded by limit rather than by the instance count.
func (e *Evaluator) Instances(p *rre.Pattern, u, v graph.NodeID, limit int) []Instance {
	if limit <= 0 {
		limit = -1
	}
	seqs := e.enum(p, u, v, limit)
	out := make([]Instance, len(seqs))
	for i, s := range seqs {
		out[i] = Instance{From: u, To: v, Seq: s}
	}
	return out
}

func node(id graph.NodeID) string { return fmt.Sprintf("%d", id) }

// enum returns the first budget instance sequences of p from u to v,
// all of them when budget < 0. Every sub-enumeration gets the remaining
// budget, so it returns a prefix of its own unlimited enumeration.
func (e *Evaluator) enum(p *rre.Pattern, u, v graph.NodeID, budget int) [][]string {
	if budget == 0 {
		return nil
	}
	var out [][]string
	// left is the budget after the instances collected so far.
	left := func() int {
		if budget < 0 {
			return -1
		}
		return budget - len(out)
	}
	switch p.Kind() {
	case rre.KindEps:
		if u == v {
			out = append(out, []string{node(u)})
		}
	case rre.KindLabel:
		for i := e.g.EdgeCount(u, p.LabelName(), v); i > 0 && left() != 0; i-- {
			out = append(out, []string{node(u), p.LabelName(), node(v)})
		}
	case rre.KindRev:
		out = e.enum(p.Subs()[0], v, u, budget)
		for i, s := range out {
			out[i] = reverseSeq(s)
		}
	case rre.KindConcat:
		subs := p.Subs()
		head, tail := subs[0], rre.Concat(subs[1:]...)
		// Only intermediate nodes w with head instances from u matter:
		// the nonzero columns of row u of the head's commuting matrix.
		e.Commuting(head).Row(int(u), func(col int, _ int64) {
			if left() == 0 {
				return
			}
			w := graph.NodeID(col)
			ts := e.enum(tail, w, v, left())
			if len(ts) == 0 {
				return
			}
			for _, h := range e.enum(head, u, w, left()) {
				for _, t := range ts {
					if left() == 0 {
						return
					}
					out = append(out, joinSeq(h, t))
				}
			}
		})
	case rre.KindAlt:
		for _, s := range p.Subs() {
			if left() == 0 {
				break
			}
			out = append(out, e.enum(s, u, v, left())...)
		}
	case rre.KindStar:
		if e.Commuting(p).At(int(u), int(v)) > 0 {
			out = append(out, []string{node(u), p.String(), node(v)})
		}
	case rre.KindSkip:
		if e.Commuting(p).At(int(u), int(v)) > 0 {
			out = append(out, []string{node(u), p.StripSkips().String(), node(v)})
		}
	case rre.KindNest:
		if u != v {
			return nil
		}
		inner := p.Subs()[0]
		e.Commuting(inner).Row(int(u), func(w int, _ int64) {
			if left() == 0 {
				return
			}
			for _, s := range e.enum(inner, u, graph.NodeID(w), left()) {
				out = append(out, append(append([]string{}, s...), "↩", node(u)))
			}
		})
	}
	return out
}

// joinSeq implements the paper's s • t: defined when the last entry of s
// equals the first of t; the shared node appears once.
func joinSeq(s, t []string) []string {
	out := make([]string, 0, len(s)+len(t)-1)
	out = append(out, s...)
	out = append(out, t[1:]...)
	return out
}

// reverseSeq implements the paper's s̄: entries reversed, labels marked
// with the reversal suffix, nodes unchanged.
func reverseSeq(s []string) []string {
	out := make([]string, len(s))
	for i := range s {
		e := s[len(s)-1-i]
		if i%2 == 1 { // label positions in the alternating sequence
			if strings.HasSuffix(e, "-") {
				e = strings.TrimSuffix(e, "-")
			} else {
				e += "-"
			}
		}
		out[i] = e
	}
	return out
}
