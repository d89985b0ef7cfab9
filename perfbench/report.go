package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// report gathers one run's measurements and renders them.
type report struct {
	b          *bench
	setups     []stages
	main       windowResult // the window; the untraced half of a traced run
	traced     windowResult // the traced half of a traced run
	wrongReads int64
	rssBytes   int64

	ladder   ladder
	layer    []layerMetric     // every per-layer metric this workload exercises
	perLayer map[string]metric // the ones BENCHMARK.json names
}

type layerMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

// jsonLayers are the per-layer metrics every workload measures; they are
// the per_layer set of BENCHMARK.json. The others apply to some
// workloads only and are printed, not reported.
var jsonLayers = map[string]bool{
	"setup.graph_s": true, "setup.build_s": true, "setup.ready_s": true,
	"http.self_us": true, "http.conns_opened": true,
	"server.self_us": true, "server.stack_ns": true,
	"server.allocs_per_op": true, "server.alloc_bytes_per_op": true,
	"server.cache.hit_ratio": true, "server.result_cache.hit_ratio": true,
	"pll.concurrent.self_ns":    true,
	"runtime.gc_cycles_per_kop": true, "runtime.gc_pause_us_per_kop": true,
}

func (r *report) endToEnd() map[string]metric {
	m := r.main
	return map[string]metric{
		"throughput_ops": {m.throughput(), "ops/s"},
		"latency_p50_us": {m.percentileUs(0.50), "us"},
		"latency_p99_us": {m.percentileUs(0.99), "us"},
		"cpu_us_per_op":  {m.cpuPerOpUs(), "us"},
		"setup_s":        {stageMedian(r.setups, stages.total), "s"},
		"index_mb":       {float64(m.stats.indexBytes) / (1 << 20), "MiB"},
		"rss_mb":         {float64(r.rssBytes) / (1 << 20), "MiB"},
	}
}

// layers derives the per-layer metrics: span self times from the traced
// half, /stats and runtime counters from the untraced half (tracing
// perturbs both), and in-process replays of the traced half's requests.
func (r *report) layers(spanDir string) error {
	b, w, un := r.b, r.b.w, r.main
	lad := b.rec.ladder(w.routed)
	r.ladder = lad
	from, to := r.traced.from, r.traced.to
	add := func(name string, v float64, unit, note string) {
		r.layer = append(r.layer, layerMetric{name, v, unit, note})
	}

	med := func(f func(stages) time.Duration) float64 { return stageMedian(r.setups, f) }
	add("setup.graph_s", med(func(s stages) time.Duration { return s.graph }), "s", "internal/gen")
	add("setup.build_s", med(func(s stages) time.Duration { return s.build }), "s", "pll.Build / BuildDynamic")
	if !w.dynamic {
		add("setup.write_s", med(func(s stages) time.Duration { return s.write }), "s", "pll.WriteFlatFile")
		add("setup.open_s", med(func(s stages) time.Duration { return s.open }), "s", "pll.Open, once per replica")
	}
	add("setup.ready_s", med(func(s stages) time.Duration { return s.ready }), "s", "servers, coordinator, first answer")

	add("http.self_us", lad.all.http, "us", "client span minus the front handler span")
	add("http.conns_opened", float64(b.dials.Load()), "count", fmt.Sprintf("load clients: %d", len(b.clients)))
	if w.routed {
		add("cluster.self_us", lad.all.cluster, "us", "coordinator span minus the union of the replica spans it caused")
		add("cluster.hedges_per_kop", un.perKop(float64(un.stats.hedges)), "1/kop", fmt.Sprintf("%d hedges / %d ops", un.stats.hedges, un.ops()))
		add("cluster.hedge_wins_per_kop", un.perKop(float64(un.stats.hedgeWins)), "1/kop", fmt.Sprintf("%d wins / %d ops", un.stats.hedgeWins, un.ops()))
		share, base := un.stats.backendShareMax()
		add("cluster.backend_share_max", share, "ratio", fmt.Sprintf("of %d successful backend attempts", base))
	}
	add("server.self_us", lad.all.server, "us", "replica spans minus their oracle spans")

	n := 2000
	if w.name == "sweep-mixed" {
		n = 200
	}
	reqs := b.handlerRequests(from, min(to, from+n))
	if len(reqs) == 0 {
		return fmt.Errorf("traced window replayed no requests")
	}
	add("server.stack_ns", stackNs(reqs), "ns", fmt.Sprintf("server.Stack around a no-op, %d requests", len(reqs)))
	allocs, bytes := allocsPerOp(b.d.replicas[0].srv.Handler(), reqs)
	add("server.allocs_per_op", allocs, "allocs/op", "Server.Handler() replay")
	add("server.alloc_bytes_per_op", bytes, "B/op", "Server.Handler() replay")
	lookups := un.stats.cacheHits + un.stats.cacheMisses
	add("server.cache.hit_ratio", ratio(un.stats.cacheHits, lookups), "ratio", fmt.Sprintf("of %d pair-cache lookups", lookups))
	lookups = un.stats.resultHits + un.stats.resultMisses
	add("server.result_cache.hit_ratio", ratio(un.stats.resultHits, lookups), "ratio", fmt.Sprintf("of %d /knn result-cache lookups", lookups))

	if c := lad.calls[layerDistance]; c > 0 {
		add("pll.distance_ns", lad.callNs[layerDistance], "ns", fmt.Sprintf("%d calls", c))
		add("pll.merge_entries", lad.callWork[layerDistance], "entries", "per Distance call")
	}
	if c := lad.calls[layerDistanceFrom]; c > 0 {
		add("pll.distance_from_us", lad.callNs[layerDistanceFrom]/1e3, "us", fmt.Sprintf("%d calls", c))
		add("pll.batch_merge_entries", lad.callWork[layerDistanceFrom], "entries", "per DistanceFrom call")
	}
	if c := lad.calls[layerKNN]; c > 0 {
		add("pll.knn_us", lad.callNs[layerKNN]/1e3, "us", fmt.Sprintf("%d calls", c))
		add("hubsearch.scan_items", lad.callWork[layerKNN], "items", "per KNN call")
	}
	pairs := b.replayPairs(from, to, 256)
	add("pll.concurrent.self_ns", concurrentSelfNs(b.d.replicas[0].srv.Oracle(), b.d.oracle(), pairs), "ns",
		fmt.Sprintf("View+Distance minus Distance, %d pairs", len(pairs)))
	if w.dynamic {
		var edges [][2]int32
		for ref, ok := range b.ans.inserted {
			if ok {
				edges = append(edges, b.q.edges[ref])
			}
		}
		us, err := insertUs(edges)
		if err != nil {
			return fmt.Errorf("insert replay: %w", err)
		}
		add("pll.dynamic.insert_us", us, "us", fmt.Sprintf("%d edges replayed through ConcurrentOracle.InsertEdge", len(edges)))
		add("pll.dynamic.label_delta", float64(b.ans.labelDelta.Load())/float64(max(len(edges), 1)), "entries", "per /update, from the responses")
	}
	add("runtime.gc_cycles_per_kop", un.perKop(float64(un.gcCycles)), "1/kop", fmt.Sprintf("%d cycles", un.gcCycles))
	add("runtime.gc_pause_us_per_kop", un.perKop(float64(un.gcPause)/1e3), "us/kop", fmt.Sprintf("%v paused", un.gcPause))

	r.perLayer = map[string]metric{}
	for _, m := range r.layer {
		if jsonLayers[m.name] {
			r.perLayer[m.name] = metric{m.value, m.unit}
		}
	}
	if len(r.perLayer) != len(jsonLayers) {
		return fmt.Errorf("measured %d of the %d reported per-layer metrics", len(r.perLayer), len(jsonLayers))
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.tsv", w.name, b.seed))
	return b.rec.writeSpans(path, 200000)
}

func (r *report) print(out io.Writer, traced bool) {
	b, m := r.b, r.main
	p := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	p("perfbench %s seed %d: %d closed-loop clients, BA graph n=%d m=%d seed %d, %d bit-parallel roots, cache %d",
		b.w.name, b.seed, len(b.clients), graphN, graphM, graphSeed, bitParallel, cacheSize)
	totals := make([]float64, len(r.setups))
	for i, s := range r.setups {
		totals[i] = s.total().Seconds()
	}
	p("set-up, %d times: %.3f s median, each %.3v s", len(r.setups), median(totals), totals)

	e2e := r.endToEnd()
	kind := "window"
	if traced {
		kind = "untraced half"
	}
	p("%s: %.2f s, ops %d..%d of %d, %d requests, %d failed", kind, m.elapsed.Seconds(), m.from, m.to, len(b.q.ops), m.attempted, m.failed)
	for _, name := range []string{"throughput_ops", "latency_p50_us", "latency_p99_us", "cpu_us_per_op", "setup_s", "index_mb", "rss_mb"} {
		note := ""
		switch name {
		case "latency_p99_us":
			note = fmt.Sprintf("  (%d samples, %d above it)", len(m.lat), len(m.lat)/100)
		case "rss_mb":
			note = "  (peak while serving)"
		}
		p("  %-16s %14.4f %-6s%s", name, e2e[name].Value, e2e[name].Unit, note)
	}
	p("  latency tail     p90 %.1f, p95 %.1f, p98 %.1f, p99.5 %.1f, p99.9 %.1f, max %.1f us",
		m.percentileUs(0.90), m.percentileUs(0.95), m.percentileUs(0.98), m.percentileUs(0.995), m.percentileUs(0.999), m.percentileUs(1))
	p("  %-16s %14.6f        (%d failed of %d attempted)", "error_rate", float64(m.failed)/float64(max(m.attempted, 1)), m.failed, m.attempted)
	s := m.stats
	p("/stats over the %s:", kind)
	p("  pair cache   %d hits of %d lookups", s.cacheHits, s.cacheHits+s.cacheMisses)
	p("  result cache %d hits of %d /knn lookups", s.resultHits, s.resultHits+s.resultMisses)
	if b.w.dynamic {
		p("  updates      %d edges inserted; index_bytes %d before the window, %d after", s.updates, s.indexBytes, m.indexAfter)
	}
	if b.w.routed {
		share, base := s.backendShareMax()
		p("  coordinator  %d hedges, %d hedge wins over %d ops; %d scatters incomplete; backend ok %v (max share %.4f of %d)",
			s.hedges, s.hedgeWins, m.ops(), s.incomplete, s.backendOK, share, base)
	}
	if b.ans.mismatches.Load() > 0 || r.wrongReads > 0 {
		p("wrong answers outside the window: %d library/BFS mismatches, %d distance-update reads out of bounds",
			b.ans.mismatches.Load(), r.wrongReads)
	}
	if !traced {
		return
	}

	t, l := r.traced, r.ladder
	p("traced half: %.2f s, ops %d..%d, %d requests, %d failed, latency_p50_us %.2f; %d spans, %d dropped",
		t.elapsed.Seconds(), t.from, t.to, t.attempted, t.failed, t.percentileUs(0.5), l.spanCount, b.rec.dropped.Load())
	p("tracing overhead: traced minus untraced latency_p50_us = %+.2f us (%.2f vs %.2f)",
		t.percentileUs(0.5)-m.percentileUs(0.5), t.percentileUs(0.5), m.percentileUs(0.5))
	p("ladder, us per request       mean over %-7d around p50 (%d requests)", l.requests, l.midCount)
	row := func(name string, all, mid float64) { p("  %-26s %12.3f %12.3f", name, all, mid) }
	row("http self", l.all.http, l.mid.http)
	if b.w.routed {
		row("cluster self", l.all.cluster, l.mid.cluster)
	}
	row("server self", l.all.server, l.mid.server)
	row("pll (oracle spans)", l.all.pll, l.mid.pll)
	row("sum of self times", l.all.sum(), l.mid.sum())
	row("client span", l.all.client, l.mid.client)
	p("per-layer metrics (* = reported in the JSON line):")
	for _, lm := range r.layer {
		mark := " "
		if jsonLayers[lm.name] {
			mark = "*"
		}
		p(" %s %-30s %14.4f %-10s %s", mark, lm.name, lm.value, lm.unit, lm.note)
	}
}
