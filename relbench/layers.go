package main

import "time"

// phase collects what one untraced, timed stretch of a workload saw
// from the client side and from the server's own counters.
type phase struct {
	lat       map[string][]float64 // client latency in ms per request kind
	overhead  []float64            // client latency minus Server-Timing total, ms
	queries   int                  // answered queries (a /batch of 100 counts 100)
	commits   int                  // acknowledged commits
	elapsed   time.Duration
	counters  counters // /stats deltas
	walBytes  float64  // relsim_wal_appended_bytes_total delta
	mem0, mem memSnap
	pinSpread float64 // pinned-version spread at the end
	entries   float64 // cache entries at the end
}

func newPhase() *phase { return &phase{lat: map[string][]float64{}} }

func (p *phase) record(kind string, r reply) {
	p.lat[kind] = append(p.lat[kind], ms(r.latency))
	if r.totalMS >= 0 {
		p.overhead = append(p.overhead, ms(r.latency)-r.totalMS)
	}
}

func (p *phase) ops() int {
	n := 0
	for _, l := range p.lat {
		n += len(l)
	}
	return n
}

// reportLatency adds a readable p50 (and p99 when enough samples lie
// beyond it) line for one request kind.
func reportLatency(o *outcome, name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	o.note("%s_p50_ms %.3f ms (n=%d)", name, median(xs), len(xs))
	if tailReportable(len(xs), 99) {
		o.note("%s_p99_ms %.3f ms (n=%d)", name, percentile(xs, 99), len(xs))
	} else {
		o.note("%s_p99_ms not reported: %d samples leave fewer than %d beyond p99", name, len(xs), tailSamples)
	}
}

// endToEnd sets the end-to-end metrics common to every workload: the
// primary request's median (op_p50_ms), the /batch median, answered
// queries per second of client time, and the heap after a forced GC.
func endToEnd(o *outcome, p *phase, setupS float64, primary string, heap float64) {
	o.set("setup_s", "s", setupS)
	o.set("op_p50_ms", "ms", median(p.lat[primary]))
	o.set("batch_p50_ms", "ms", median(p.lat["batch"]))
	o.set("queries_per_s", "1/s", float64(p.queries)/p.elapsed.Seconds())
	o.set("heap_mb", "MB", heap)
	for _, kind := range []string{"batch", "search", "commit"} {
		reportLatency(o, kind, p.lat[kind])
	}
	if p.commits > 0 {
		o.note("commits_per_s %.2f 1/s", float64(p.commits)/p.elapsed.Seconds())
	}
	o.note("error_rate %.6f (%d failed of %d attempted)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	o.note("setup_s %.4f s, heap_mb %.1f MB, queries_per_s %.1f 1/s", setupS, heap, float64(p.queries)/p.elapsed.Seconds())
}

// perLayer sets the per-layer metrics from the untraced phase's
// counters and the traced replay's spans. primary is the span name of
// the replayed request that end-to-end op_p50_ms times; deltaProducts
// are the delta-maintenance products the replay's commits made.
func perLayer(o *outcome, p *phase, r *replayer, primary string, deltaProducts float64) {
	tr := r.tr
	ops := float64(len(tr.durations(primary)))
	var nProducts, flops, outNNZ, alloc, productMS, inMaterialize float64
	var materialize []float64
	var saved, planned float64
	var epSizes, cands []float64
	for i, s := range tr.spans {
		switch s.Name {
		case "sparse.product":
			nProducts++
			flops += float64(s.Flops)
			outNNZ += float64(s.OutNNZ)
			alloc += float64(s.Alloc)
			productMS += s.dur()
			if within(tr, i, "eval.materialize") {
				inMaterialize += s.dur()
			}
		case "eval.materialize":
			materialize = append(materialize, s.dur())
		case "eval.plan":
			saved += float64(s.Saved)
			planned += float64(s.Count)
		case "pattern.expand":
			epSizes = append(epSizes, float64(s.Count))
		case "sim.score":
			cands = append(cands, float64(s.Count))
		}
	}
	products := tr.durations("sparse.product")
	o.set("sparse.products", "count", ratio(nProducts+deltaProducts, ops))
	o.set("sparse.product_ms_p50", "ms", orZero(median(products)))
	o.set("sparse.product_ms_p99", "ms", orZero(percentile(products, 99)))
	o.set("sparse.flops", "count", ratio(flops, ops))
	o.set("sparse.out_nnz", "count", ratio(outNNZ, ops))
	o.set("sparse.ns_per_flop", "ns/flop", ratio(productMS*1e6, flops))
	o.set("sparse.alloc_mb", "MB", ratio(alloc, ops)/(1<<20))
	var matTotal float64
	for _, m := range materialize {
		matTotal += m
	}
	o.set("sparse.materialize_share", "ratio", ratio(inMaterialize, matTotal))

	c := p.counters
	o.set("eval.plan_ms", "ms", orZero(median(tr.durations("eval.plan"))))
	o.set("eval.materialize_ms", "ms", orZero(median(materialize)))
	o.set("eval.products_saved_ratio", "ratio", ratio(saved, saved+planned))
	o.set("eval.cache_hit_ratio", "ratio", ratio(c[cHits], c[cHits]+c[cMisses]))
	o.set("eval.cache_entries", "count", p.entries)
	o.set("eval.delta_maintain_ms", "ms", ratio(c[cDeltaSeconds]*1000, c[cDeltaCommits]))
	o.set("eval.delta_products_per_commit", "count", ratio(c[cDeltaProducts], c[cDeltaCommits]))
	o.set("eval.delta_maintained_ratio", "ratio", ratio(c[cDeltaMaintained], c[cDeltaRoots]))

	o.set("pattern.expand_ms", "ms", orZero(median(tr.durations("pattern.expand"))))
	o.set("pattern.ep_size", "count", orZero(mean(epSizes)))
	o.set("server.expand_memo_hit_ratio", "ratio", ratio(c[cExpandHits], c[cExpandHits]+c[cExpandMisses]))
	o.set("rre.parse_us", "us", orZero(median(tr.durations("rre.parse")))*1000)
	o.set("sim.score_ms", "ms", orZero(median(tr.durations("sim.score"))))
	o.set("sim.candidates", "count", orZero(mean(cands)))
	o.set("server.encode_us", "us", orZero(median(tr.durations("server.encode")))*1000)
	o.set("server.http_overhead_ms", "ms", orZero(median(p.overhead)))

	commits := float64(p.commits)
	o.set("store.commit_ms", "ms", orZero(median(tr.durations("store.update"))))
	o.set("store.pin_spread", "count", p.pinSpread)
	o.set("store.checkpoints", "count", c[cCheckpoints])
	o.set("wal.fsyncs_per_commit", "count", ratio(c[cFsyncs], commits))
	o.set("wal.bytes_per_commit", "B", ratio(p.walBytes, commits))

	o.set("runtime.gc_pause_ms", "ms", float64(p.mem.pauseNS-p.mem0.pauseNS)/1e6)
	o.set("runtime.alloc_mb_per_op", "MB", ratio(float64(p.mem.alloc-p.mem0.alloc), float64(p.ops()))/(1<<20))
	o.set("bench.trace_overhead_ratio", "ratio", ratio(orZero(median(tr.durations(primary))), orZero(median(p.lat[primaryKind[primary]]))))

	o.note("traced replay: %d %s ops, %d spans; sparse spans cover %.1f%% of eval.materialize",
		int(ops), primary, len(tr.spans), 100*ratio(inMaterialize, matTotal))
}

// primaryKind maps a replayed request's span name to the client-side
// request kind it mirrors.
var primaryKind = map[string]string{
	"bench.batch":  "batch",
	"bench.search": "search",
	"store.update": "commit",
}

// within reports whether span i has an ancestor named name.
func within(tr *tracer, i int, name string) bool {
	for p := tr.spans[i].Parent; p >= 0; p = tr.spans[p].Parent {
		if tr.spans[p].Name == name {
			return true
		}
	}
	return false
}
