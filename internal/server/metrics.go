package server

// GET /metrics: the Prometheus-text-format scrape surface, stdlib
// only. Per-endpoint request counters and latency histograms come from
// the middleware in stack.go; cache and admission series read the
// existing counters; the index gauges (label sizes — the expected
// merge length of a Distance call — and hub occupancy) come from
// pll.Stats, cached per (generation, update-count) so a 15-second
// scrape interval never pays the O(n) label scan twice for the same
// index.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pll/internal/wire"
	"pll/pll"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// cache-hit microseconds to a saturated multi-second tail.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation: each bucket holds its own (non-cumulative) count, the
// cumulative sums Prometheus wants are computed at scrape time. It is
// exported so components mounting a Stack (the cluster coordinator's
// per-backend series) share one bucket layout across every scrape
// surface.
type Histogram struct {
	buckets [len(latencyBuckets)]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	for i := range latencyBuckets {
		if sec <= latencyBuckets[i] {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// WriteSeries emits the histogram in Prometheus text format under the
// given metric name with the given label set (e.g. `endpoint="knn"`),
// cumulative buckets plus _sum and _count. The caller emits the HELP
// and TYPE lines once per family.
func (h *Histogram) WriteSeries(w io.Writer, metric, labels string) {
	cum := int64(0)
	for i := range latencyBuckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", metric, labels, wire.FmtFloat(latencyBuckets[i]), cum)
	}
	count := h.count.Load()
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", metric, labels, count)
	fmt.Fprintf(w, "%s_sum{%s} %s\n", metric, labels, wire.FmtFloat(float64(h.sumNs.Load())/1e9))
	fmt.Fprintf(w, "%s_count{%s} %d\n", metric, labels, count)
}

// statusClasses indexes response-code classes 1xx..5xx (slot 0 unused).
const statusClasses = 6

// endpointMetrics is one endpoint's request tally: responses by status
// class plus the latency histogram over every response.
type endpointMetrics struct {
	codes [statusClasses]atomic.Int64
	hist  Histogram
}

func (m *endpointMetrics) observe(status int, d time.Duration) {
	if c := status / 100; c >= 1 && c < statusClasses {
		m.codes[c].Add(1)
	}
	m.hist.Observe(d)
}

// metrics holds the per-endpoint series. The endpoint set is fixed at
// construction (every series exists from the first scrape, so rates
// never jump from absent to nonzero).
type metrics struct {
	endpoints map[string]*endpointMetrics
	names     []string // sorted, for deterministic emission
}

func newMetrics(names ...string) *metrics {
	m := &metrics{endpoints: make(map[string]*endpointMetrics, len(names))}
	for _, n := range names {
		m.endpoints[n] = &endpointMetrics{}
		m.names = append(m.names, n)
	}
	sort.Strings(m.names)
	return m
}

// statsCache memoizes the served index's pll.Stats keyed by the
// (generation, update-count) pair that invalidates them: Stats scans
// every label, which a mapped multi-gigabyte index should not repeat
// on each scrape.
type statsCache struct {
	mu    sync.Mutex
	key   [2]uint64
	st    pll.Stats
	valid bool
}

// cachedStats returns the served index's stats, recomputing only after
// a reload or update changed them.
func (s *Server) cachedStats() pll.Stats {
	key := [2]uint64{s.oracle.Generation(), uint64(s.updates.Load())}
	c := &s.statsCache
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.valid || c.key != key {
		c.st = s.oracle.Stats()
		c.key = key
		c.valid = true
	}
	return c.st
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	// The request/latency/shed/in-flight families come from the shared
	// middleware stack; everything below is Server-specific.
	s.stack.WriteMetrics(w)

	fmt.Fprintf(w, "# HELP pll_cache_hits_total Cache hits by cache (pair = /distance, knn and query = result bodies).\n")
	fmt.Fprintf(w, "# TYPE pll_cache_hits_total counter\n")
	fmt.Fprintf(w, "pll_cache_hits_total{cache=\"pair\"} %d\n", s.pairTally.hits.Load())
	fmt.Fprintf(w, "pll_cache_hits_total{cache=\"knn\"} %d\n", s.knnTally.hits.Load())
	fmt.Fprintf(w, "pll_cache_hits_total{cache=\"query\"} %d\n", s.queryTally.hits.Load())
	fmt.Fprintf(w, "# HELP pll_cache_misses_total Cache misses by cache.\n")
	fmt.Fprintf(w, "# TYPE pll_cache_misses_total counter\n")
	fmt.Fprintf(w, "pll_cache_misses_total{cache=\"pair\"} %d\n", s.pairTally.misses.Load())
	fmt.Fprintf(w, "pll_cache_misses_total{cache=\"knn\"} %d\n", s.knnTally.misses.Load())
	fmt.Fprintf(w, "pll_cache_misses_total{cache=\"query\"} %d\n", s.queryTally.misses.Load())
	fmt.Fprintf(w, "# HELP pll_cache_entries Entries resident by cache.\n")
	fmt.Fprintf(w, "# TYPE pll_cache_entries gauge\n")
	fmt.Fprintf(w, "pll_cache_entries{cache=\"pair\"} %d\n", s.cache.len())
	fmt.Fprintf(w, "pll_cache_entries{cache=\"result\"} %d\n", s.results.len())
	fmt.Fprintf(w, "# HELP pll_cache_capacity Effective capacity by cache (configured size rounded up to whole shards).\n")
	fmt.Fprintf(w, "# TYPE pll_cache_capacity gauge\n")
	fmt.Fprintf(w, "pll_cache_capacity{cache=\"pair\"} %d\n", s.cache.capacity())
	fmt.Fprintf(w, "pll_cache_capacity{cache=\"result\"} %d\n", s.results.capacity())

	st := s.cachedStats()
	for _, g := range []struct {
		name, help string
		value      string
	}{
		{"pll_index_vertices", "Vertices in the served index.", strconv.Itoa(st.NumVertices)},
		{"pll_index_bit_parallel_roots", "Bit-parallel roots in the served index.", strconv.Itoa(st.NumBitParallel)},
		{"pll_index_label_entries", "Normal label entries over all vertices.", strconv.FormatInt(st.TotalLabelEntries, 10)},
		{"pll_index_avg_label_size", "Average per-vertex label size: the expected merge length of one Distance call is twice this.", wire.FmtFloat(st.AvgLabelSize)},
		{"pll_index_max_label_size", "Largest per-vertex label: the worst-case merge length.", strconv.Itoa(st.MaxLabelSize)},
		{"pll_index_bytes", "Estimated in-memory footprint of label and bit-parallel arrays.", strconv.FormatInt(st.IndexBytes, 10)},
		{"pll_index_hubs_distinct", "Hubs carried by at least one label entry.", strconv.Itoa(st.DistinctHubs)},
		{"pll_index_hub_load_max", "Label entries carried by the most loaded hub.", strconv.Itoa(st.MaxHubLoad)},
		{"pll_index_hub_load_avg", "Label entries per occupied hub.", wire.FmtFloat(st.AvgHubLoad)},
		{"pll_index_generation", "Completed index hot-swaps.", strconv.FormatUint(s.oracle.Generation(), 10)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", g.name, g.help, g.name, g.name, g.value)
	}

	fmt.Fprintf(w, "# HELP pll_reloads_total Successful index hot-swaps.\n")
	fmt.Fprintf(w, "# TYPE pll_reloads_total counter\n")
	fmt.Fprintf(w, "pll_reloads_total %d\n", s.reloads.Load())
	fmt.Fprintf(w, "# HELP pll_updates_total Edges inserted through /update.\n")
	fmt.Fprintf(w, "# TYPE pll_updates_total counter\n")
	fmt.Fprintf(w, "pll_updates_total %d\n", s.updates.Load())
	fmt.Fprintf(w, "# HELP pll_uptime_seconds Seconds since the server was constructed.\n")
	fmt.Fprintf(w, "# TYPE pll_uptime_seconds gauge\n")
	fmt.Fprintf(w, "pll_uptime_seconds %s\n", wire.FmtFloat(time.Since(s.start).Seconds()))
}

// MetricsHandler returns the bare /metrics handler for mounting on an
// admin listener (cmd/pllserved -pprof), bypassing admission control
// so the scrape keeps working while the serving listener sheds load.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}
