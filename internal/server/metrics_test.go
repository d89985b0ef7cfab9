package server

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pll/pll"
)

// scrape fetches /metrics and returns the body split into lines.
func scrape(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(body), "\n"), "\n")
}

// sampleValue finds the unique sample line with the given name and
// label content and returns its value.
func sampleValue(t *testing.T, lines []string, prefix string) float64 {
	t.Helper()
	var found string
	for _, l := range lines {
		if strings.HasPrefix(l, prefix+" ") {
			if found != "" {
				t.Fatalf("duplicate sample %q", prefix)
			}
			found = l
		}
	}
	if found == "" {
		t.Fatalf("no sample with prefix %q", prefix)
	}
	v, err := strconv.ParseFloat(found[len(prefix)+1:], 64)
	if err != nil {
		t.Fatalf("sample %q has bad value: %v", found, err)
	}
	return v
}

var (
	commentLine = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$`)
	sampleLine  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? [-+0-9.eEInf]+$`)
)

// TestMetricsExposition exercises the scrape end to end: the body must
// be line-valid Prometheus text format, every endpoint must expose its
// request counter and latency histogram, and the counters must agree
// exactly with the traffic the test generated.
func TestMetricsExposition(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{CacheSize: 100})

	// Known traffic: two good /distance calls (the second a cache hit),
	// one bad one, one /batch of three pairs.
	getJSON(t, ts.URL+"/distance?s=0&t=5", http.StatusOK, nil)
	getJSON(t, ts.URL+"/distance?s=0&t=5", http.StatusOK, nil)
	getJSON(t, ts.URL+"/distance?s=0&t=banana", http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/batch", map[string]any{"pairs": [][2]int32{{0, 1}, {1, 2}, {2, 3}}}, http.StatusOK, nil)

	lines := scrape(t, ts.URL)

	typed := map[string]bool{}
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "# TYPE "):
			typed[strings.Fields(l)[2]] = true
			fallthrough
		case strings.HasPrefix(l, "#"):
			if !commentLine.MatchString(l) {
				t.Errorf("malformed comment line: %q", l)
			}
		default:
			if !sampleLine.MatchString(l) {
				t.Errorf("malformed sample line: %q", l)
			}
			// Every sample must appear under a preceding # TYPE for its
			// family (histogram series strip the _bucket/_sum/_count
			// suffix).
			name := l[:strings.IndexAny(l, "{ ")]
			family := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if f, ok := strings.CutSuffix(name, suf); ok && typed[f] {
					family = f
				}
			}
			if !typed[family] {
				t.Errorf("sample %q precedes its # TYPE", l)
			}
		}
	}

	// Counter accuracy by status class.
	if got := sampleValue(t, lines, `pll_http_requests_total{endpoint="distance",code="2xx"}`); got != 2 {
		t.Errorf("distance 2xx = %v, want 2", got)
	}
	if got := sampleValue(t, lines, `pll_http_requests_total{endpoint="distance",code="4xx"}`); got != 1 {
		t.Errorf("distance 4xx = %v, want 1", got)
	}
	if got := sampleValue(t, lines, `pll_http_requests_total{endpoint="batch",code="2xx"}`); got != 1 {
		t.Errorf("batch 2xx = %v, want 1", got)
	}

	// Histogram consistency: every wired endpoint has a family, count
	// matches the traffic, cumulative buckets are monotone and the +Inf
	// bucket equals the count.
	for _, ep := range []string{"healthz", "metrics", "distance", "path", "batch", "stats",
		"update", "reload", "knn", "range", "nearest", "query"} {
		want := map[string]float64{"distance": 3, "batch": 1}[ep]
		if got := sampleValue(t, lines, fmt.Sprintf(`pll_http_request_duration_seconds_count{endpoint=%q}`, ep)); got != want {
			t.Errorf("duration count[%s] = %v, want %v", ep, got, want)
		}
		prev := -1.0
		for _, l := range lines {
			if !strings.HasPrefix(l, fmt.Sprintf(`pll_http_request_duration_seconds_bucket{endpoint=%q,`, ep)) {
				continue
			}
			v, err := strconv.ParseFloat(l[strings.LastIndex(l, " ")+1:], 64)
			if err != nil || v < prev {
				t.Errorf("bucket line not cumulative: %q (prev %v)", l, prev)
			}
			prev = v
		}
		if inf := sampleValue(t, lines, fmt.Sprintf(`pll_http_request_duration_seconds_bucket{endpoint=%q,le="+Inf"}`, ep)); inf != want {
			t.Errorf("+Inf bucket[%s] = %v, want %v", ep, inf, want)
		}
	}

	// Cache series: one hit, one miss on the pair cache, and the
	// capacity gauge reports the effective per-shard rounding (100
	// splits into 16 shards of 7 = 112), matching /stats.
	if got := sampleValue(t, lines, `pll_cache_hits_total{cache="pair"}`); got != 1 {
		t.Errorf("pair cache hits = %v, want 1", got)
	}
	if got := sampleValue(t, lines, `pll_cache_misses_total{cache="pair"}`); got != 1 {
		t.Errorf("pair cache misses = %v, want 1", got)
	}
	if got := sampleValue(t, lines, `pll_cache_capacity{cache="pair"}`); got != 112 {
		t.Errorf("pair cache capacity = %v, want 112", got)
	}

	// Index gauges reflect the served index.
	if got := sampleValue(t, lines, "pll_index_vertices"); got != 8 {
		t.Errorf("pll_index_vertices = %v, want 8", got)
	}
	if got := sampleValue(t, lines, "pll_index_generation"); got != 0 {
		t.Errorf("pll_index_generation = %v, want 0", got)
	}
	if got := sampleValue(t, lines, "pll_index_avg_label_size"); got <= 0 {
		t.Errorf("pll_index_avg_label_size = %v, want > 0", got)
	}
	if got := sampleValue(t, lines, "pll_index_hubs_distinct"); got <= 0 {
		t.Errorf("pll_index_hubs_distinct = %v, want > 0", got)
	}
}

// TestMetricsReloadCounters checks the mutation counters: a reload
// bumps pll_reloads_total and the generation gauge, and the stats cache
// keyed on (generation, updates) picks up the new index's gauges.
func TestMetricsReloadCounters(t *testing.T) {
	dir := t.TempDir()
	path := writeIndexFile(t, dir, "next.pllbox", 31)
	ix, err := pll.Build(lineGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})

	lines := scrape(t, ts.URL)
	if got := sampleValue(t, lines, "pll_index_vertices"); got != 8 {
		t.Fatalf("pre-reload vertices = %v, want 8", got)
	}

	postJSON(t, ts.URL+"/reload", map[string]string{"path": path}, http.StatusOK, nil)

	lines = scrape(t, ts.URL)
	if got := sampleValue(t, lines, "pll_reloads_total"); got != 1 {
		t.Errorf("pll_reloads_total = %v, want 1", got)
	}
	if got := sampleValue(t, lines, "pll_index_generation"); got != 1 {
		t.Errorf("pll_index_generation = %v, want 1", got)
	}
	if got := sampleValue(t, lines, "pll_index_vertices"); got != 31 {
		t.Errorf("post-reload vertices = %v, want 31 (stats cache not invalidated?)", got)
	}
}
