package server

import (
	"bytes"
	"net/http"
	"sort"
	"testing"

	"pll/pll"
)

// queryResponse is the /query wire shape.
type queryResponse struct {
	Count      int                  `json:"count"`
	Total      int                  `json:"total"`
	TotalExact bool                 `json:"total_exact"`
	Truncated  bool                 `json:"truncated"`
	Matches    []pll.CompositeMatch `json:"matches"`
}

// bruteQuery answers a composite request from ground-truth rows: eval
// the clause per vertex, score, sort (reachable scores ascending then
// vertex, unreachable last), trim to k.
func bruteQuery(tc variantCase, req *pll.CompositeRequest) queryResponse {
	req.Normalize()
	rows := map[int32][]int64{}
	row := func(s int32) []int64 {
		if r, ok := rows[s]; ok {
			return r
		}
		r := tc.dist(s)
		rows[s] = r
		return r
	}
	var eval func(c *pll.CompositeClause, v int32) bool
	eval = func(c *pll.CompositeClause, v int32) bool {
		switch {
		case c.Near != nil:
			d := row(c.Near.Source)[v]
			return d >= 0 && d <= c.Near.MaxDist
		case c.In != nil:
			for _, m := range c.In {
				if m == v {
					return true
				}
			}
			return false
		case c.Not != nil:
			return !eval(c.Not, v)
		case c.And != nil:
			for _, k := range c.And {
				if !eval(k, v) {
					return false
				}
			}
			return true
		default:
			for _, k := range c.Or {
				if eval(k, v) {
					return true
				}
			}
			return false
		}
	}
	var ms []pll.CompositeMatch
	for v := int32(0); int(v) < tc.n; v++ {
		if !eval(req.Where, v) {
			continue
		}
		m := pll.CompositeMatch{Vertex: v, Terms: make([]int64, len(req.Rank.Terms))}
		for i, t := range req.Rank.Terms {
			d := row(t.Source)[v]
			m.Terms[i] = d
			if d < 0 {
				m.Score = -1
			} else if m.Score >= 0 {
				if w := t.Weight * d; req.Rank.By == "max" {
					if w > m.Score {
						m.Score = w
					}
				} else {
					m.Score += w
				}
			}
		}
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if (a.Score < 0) != (b.Score < 0) {
			return b.Score < 0
		}
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		return a.Vertex < b.Vertex
	})
	total := len(ms)
	if req.K > 0 && len(ms) > req.K {
		ms = ms[:req.K]
	}
	return queryResponse{Count: len(ms), Total: total, TotalExact: true, Matches: ms}
}

func matchesEqual(got, want []pll.CompositeMatch) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Vertex != want[i].Vertex || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

// TestQueryConformanceHandlers drives /query for every searchable
// variant (heap and flat-with-persisted-sections) and compares each
// answer with the ground-truth reference.
func TestQueryConformanceHandlers(t *testing.T) {
	const (
		n    = 48
		m    = 120
		seed = 29
	)
	near := func(s int32, d int64) *pll.CompositeClause {
		return &pll.CompositeClause{Near: &pll.NearClause{Source: s, MaxDist: d}}
	}
	requests := func() []*pll.CompositeRequest {
		return []*pll.CompositeRequest{
			{Where: &pll.CompositeClause{And: []*pll.CompositeClause{near(0, 3), near(7, 4)}}},
			{Where: &pll.CompositeClause{Or: []*pll.CompositeClause{near(3, 2), near(11, 2)}}, K: 6},
			{Where: &pll.CompositeClause{And: []*pll.CompositeClause{near(0, 5), {Not: near(9, 1)}}}, K: 4},
			{Where: &pll.CompositeClause{And: []*pll.CompositeClause{near(2, 6), {In: []int32{0, 5, 10, 15, 20}}}}},
			{Where: near(5, 4), Rank: &pll.CompositeRank{
				By:    "max",
				Terms: []pll.CompositeTerm{{Source: 5, Weight: 2}, {Source: 13}},
			}, K: 5},
		}
	}
	cases := []variantCase{
		undirectedCase(t, n, m, seed),
		directedCase(t, n, m, seed, false),
		weightedCase(t, n, m, seed, false),
	}
	cases = append(cases, flatSearchVariant(t, undirectedCase(t, n, m, seed+1)))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.oracle, Config{})
			for i, req := range requests() {
				want := bruteQuery(tc, req)
				var got queryResponse
				postJSON(t, ts.URL+"/query", req, http.StatusOK, &got)
				if !matchesEqual(got.Matches, want.Matches) {
					t.Fatalf("request %d: matches %v, want %v", i, got.Matches, want.Matches)
				}
				if got.Count != want.Count || got.Truncated {
					t.Fatalf("request %d: count=%d truncated=%v, want count=%d", i, got.Count, got.Truncated, want.Count)
				}
				if got.TotalExact && got.Total != want.Total {
					t.Fatalf("request %d: exact total %d, want %d", i, got.Total, want.Total)
				}
				if !got.TotalExact && got.Total > want.Total {
					t.Fatalf("request %d: lower-bound total %d above true %d", i, got.Total, want.Total)
				}
			}
		})
	}
}

// TestQueryHandlerHardening pins the hostile-input behavior of /query:
// structural and range errors 400, fan-out and k caps 400, oversized
// bodies 413, and a live dynamic index 409.
func TestQueryHandlerHardening(t *testing.T) {
	tc := undirectedCase(t, 30, 60, 31)
	_, ts := newTestServer(t, tc.oracle, Config{MaxBatch: 8, MaxBody: 512})
	near := func(s int32, d int64) *pll.CompositeClause {
		return &pll.CompositeClause{Near: &pll.NearClause{Source: s, MaxDist: d}}
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Structural violations.
	postJSON(t, ts.URL+"/query", &pll.CompositeRequest{}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/query", &pll.CompositeRequest{
		Where: &pll.CompositeClause{Not: near(0, 2)},
	}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/query", &pll.CompositeRequest{
		Where: near(0, 2), Rank: &pll.CompositeRank{By: "median"},
	}, http.StatusBadRequest, nil)

	// Vertices beyond the served index.
	postJSON(t, ts.URL+"/query", &pll.CompositeRequest{Where: near(99, 2)}, http.StatusBadRequest, nil)

	// Fan-out cap: nine leaves exceed MaxBatch=8.
	var kids []*pll.CompositeClause
	for i := int32(0); i < 9; i++ {
		kids = append(kids, near(i, 2))
	}
	postJSON(t, ts.URL+"/query", &pll.CompositeRequest{
		Where: &pll.CompositeClause{Or: kids},
	}, http.StatusBadRequest, nil)

	// k cap.
	postJSON(t, ts.URL+"/query", &pll.CompositeRequest{Where: near(0, 2), K: 9}, http.StatusBadRequest, nil)

	// Oversized body.
	huge := append(append([]byte(`{"where":{"in":[0`), bytes.Repeat([]byte(",1"), 400)...), []byte("]}}")...)
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// A live dynamic index cannot answer composite queries.
	dyn := dynamicCase(t, 30, 60, 31)
	_, dts := newTestServer(t, dyn.oracle, Config{})
	postJSON(t, dts.URL+"/query", &pll.CompositeRequest{Where: near(0, 2)}, http.StatusConflict, nil)
}

// TestRangeTotals pins the /range total contract: exact when the scan
// completed, a lower bound (limit+1) when truncated.
func TestRangeTotals(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})
	var rr struct {
		Count      int  `json:"count"`
		Total      int  `json:"total"`
		TotalExact bool `json:"total_exact"`
		Truncated  bool `json:"truncated"`
	}
	// Untruncated: 0's 4-neighborhood on the line is {1,2,3,4}.
	getJSON(t, ts.URL+"/range?s=0&r=4", http.StatusOK, &rr)
	if rr.Count != 4 || rr.Total != 4 || !rr.TotalExact || rr.Truncated {
		t.Fatalf("untruncated range: %+v", rr)
	}
	// Truncated at limit=2: total is the lower bound limit+1.
	getJSON(t, ts.URL+"/range?s=0&r=8&limit=2", http.StatusOK, &rr)
	if rr.Count != 2 || rr.Total != 3 || rr.TotalExact || !rr.Truncated {
		t.Fatalf("truncated range: %+v", rr)
	}
}

// TestResultCacheEndpoints checks that /knn and /query answers are
// cached per endpoint, that /stats surfaces the split tallies, and
// that a reload purges everything.
func TestResultCacheEndpoints(t *testing.T) {
	dir := t.TempDir()
	path := writeIndexFile(t, dir, "ix.pllbox", 10)
	o, err := pll.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, o, Config{CacheSize: 64, IndexPath: path})

	var first, second struct {
		Neighbors []pll.Neighbor `json:"neighbors"`
	}
	getJSON(t, ts.URL+"/knn?s=0&k=3", http.StatusOK, &first)
	getJSON(t, ts.URL+"/knn?s=0&k=3", http.StatusOK, &second) // hit
	if len(first.Neighbors) != 3 || !neighborsMatch(first.Neighbors, second.Neighbors) {
		t.Fatalf("cached /knn diverges: %v vs %v", first.Neighbors, second.Neighbors)
	}

	req := func() *pll.CompositeRequest {
		return &pll.CompositeRequest{
			Where: &pll.CompositeClause{Near: &pll.NearClause{Source: 0, MaxDist: 3}},
		}
	}
	var q1, q2 queryResponse
	postJSON(t, ts.URL+"/query", req(), http.StatusOK, &q1)
	postJSON(t, ts.URL+"/query", req(), http.StatusOK, &q2) // hit
	if q1.Count == 0 || !matchesEqual(q1.Matches, q2.Matches) {
		t.Fatalf("cached /query diverges: %+v vs %+v", q1, q2)
	}

	var st struct {
		Cache struct {
			Results struct {
				Entries int `json:"entries"`
				KNN     struct {
					Hits   int64 `json:"hits"`
					Misses int64 `json:"misses"`
				} `json:"knn"`
				Query struct {
					Hits   int64 `json:"hits"`
					Misses int64 `json:"misses"`
				} `json:"query"`
			} `json:"results"`
		} `json:"cache"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	res := st.Cache.Results
	if res.Entries != 2 || res.KNN.Hits != 1 || res.KNN.Misses != 1 || res.Query.Hits != 1 || res.Query.Misses != 1 {
		t.Fatalf("stats.cache.results = %+v", res)
	}

	// A reload must drop every cached search answer.
	if _, err := s.Reload(path); err != nil {
		t.Fatal(err)
	}
	if got := s.results.len(); got != 0 {
		t.Fatalf("results cache holds %d entries after reload", got)
	}
}
