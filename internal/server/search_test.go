package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"testing"

	"pll/internal/wire"
	"pll/pll"
)

// bruteSearchRow derives expected search answers from a ground-truth
// distance row (see the conformance suite for how rows are produced).
func bruteSearchRow(row []int64, s int32, radius int64, k int, members map[int32]bool) []pll.Neighbor {
	var out []pll.Neighbor
	for v, d := range row {
		if int32(v) == s || d < 0 {
			continue
		}
		if radius >= 0 && d > radius {
			continue
		}
		if members != nil && !members[int32(v)] {
			continue
		}
		out = append(out, pll.Neighbor{Vertex: int32(v), Distance: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Vertex < out[j].Vertex
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func neighborsMatch(got, want []pll.Neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// checkSearchVariant drives /knn, /range and /nearest for one variant
// and compares every answer with the BFS/Dijkstra ground truth.
func checkSearchVariant(t *testing.T, tc variantCase) {
	t.Helper()
	_, ts := newTestServer(t, tc.oracle, Config{})
	members := make([]int32, 0, tc.n/3+1)
	inSet := map[int32]bool{}
	for v := 0; v < tc.n; v += 3 {
		members = append(members, int32(v))
		inSet[int32(v)] = true
	}
	for _, src := range []int32{0, int32(tc.n / 2), int32(tc.n - 1)} {
		row := tc.dist(src)
		for _, k := range []int{1, 4, tc.n} {
			var kr struct {
				Count     int            `json:"count"`
				Neighbors []pll.Neighbor `json:"neighbors"`
			}
			getJSON(t, fmt.Sprintf("%s/knn?s=%d&k=%d", ts.URL, src, k), http.StatusOK, &kr)
			want := bruteSearchRow(row, src, -1, k, nil)
			if kr.Count != len(want) || !neighborsMatch(kr.Neighbors, want) {
				t.Fatalf("%s: /knn s=%d k=%d = %v, want %v", tc.name, src, k, kr.Neighbors, want)
			}

			var nr struct {
				SetSize   int            `json:"set_size"`
				Neighbors []pll.Neighbor `json:"neighbors"`
			}
			postJSON(t, ts.URL+"/nearest", wire.NearestRequest{Source: src, Set: members, K: k},
				http.StatusOK, &nr)
			wantIn := bruteSearchRow(row, src, -1, k, inSet)
			if nr.SetSize != len(members) || !neighborsMatch(nr.Neighbors, wantIn) {
				t.Fatalf("%s: /nearest s=%d k=%d = %v, want %v", tc.name, src, k, nr.Neighbors, wantIn)
			}
		}
		for _, radius := range []int64{0, 2, 6} {
			var rr struct {
				Truncated bool           `json:"truncated"`
				Neighbors []pll.Neighbor `json:"neighbors"`
			}
			getJSON(t, fmt.Sprintf("%s/range?s=%d&r=%d", ts.URL, src, radius), http.StatusOK, &rr)
			want := bruteSearchRow(row, src, radius, 0, nil)
			if rr.Truncated || !neighborsMatch(rr.Neighbors, want) {
				t.Fatalf("%s: /range s=%d r=%d = %v (truncated=%v), want %v",
					tc.name, src, radius, rr.Neighbors, rr.Truncated, want)
			}
		}
	}
}

// TestSearchConformanceHandlers runs the search ground-truth checks
// through the HTTP handlers for every searchable variant, both
// heap-built and memory-mapped (with and without persisted search
// sections).
func TestSearchConformanceHandlers(t *testing.T) {
	const (
		n    = 54
		m    = 140
		seed = 19
	)
	cases := []variantCase{
		undirectedCase(t, n, m, seed),
		directedCase(t, n, m, seed, false),
		weightedCase(t, n, m, seed, false),
	}
	for _, base := range cases {
		cases = append(cases, flatVariant(t, base, false))
	}
	// A flat container with the persisted inverted index must answer
	// identically through the handlers too.
	und := undirectedCase(t, n, m, seed+1)
	persisted := flatSearchVariant(t, und)
	cases = append(cases, persisted)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkSearchVariant(t, tc) })
	}
}

// flatSearchVariant round-trips an oracle through WriteFlatFile with
// FlatSearch + Open, so handler checks run against the persisted
// inverted sections.
func flatSearchVariant(t *testing.T, base variantCase) variantCase {
	t.Helper()
	path := t.TempDir() + "/" + base.name + ".search.pllbox"
	if err := pll.WriteFlatFile(path, base.oracle, pll.FlatSearch()); err != nil {
		t.Fatal(err)
	}
	fi, err := pll.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fi.Close() })
	out := base
	out.name = "flat-search-" + base.name
	out.oracle = fi
	out.hop = nil
	return out
}

// TestSearchHandlerHardening pins the hostile-input behavior: fan-out
// and body caps reject with 4xx before any work happens, and a served
// dynamic index reports 409 for search queries.
func TestSearchHandlerHardening(t *testing.T) {
	tc := undirectedCase(t, 30, 60, 23)
	_, ts := newTestServer(t, tc.oracle, Config{MaxBatch: 16, MaxBody: 256})

	// /knn fan-out and parameter validation.
	getJSON(t, ts.URL+"/knn?s=0&k=0", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/knn?s=0&k=17", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/knn?s=0", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/knn?s=999&k=3", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/knn?s=zero&k=3", http.StatusBadRequest, nil)

	// /range validation, limit cap and truncation marker.
	getJSON(t, ts.URL+"/range?s=0&r=-1", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/range?s=0&r=2&limit=17", http.StatusBadRequest, nil)
	var rr struct {
		Truncated bool           `json:"truncated"`
		Neighbors []pll.Neighbor `json:"neighbors"`
	}
	getJSON(t, ts.URL+"/range?s=0&r=100&limit=1", http.StatusOK, &rr)
	if !rr.Truncated || len(rr.Neighbors) != 1 {
		t.Fatalf("limit=1 range: %d results, truncated=%v", len(rr.Neighbors), rr.Truncated)
	}
	// Radii are int64: weighted deployments can exceed int32.
	getJSON(t, ts.URL+"/range?s=0&r=3000000000&limit=2", http.StatusOK, &rr)

	// /nearest set and k caps.
	postJSON(t, ts.URL+"/nearest", wire.NearestRequest{Source: 0, Set: nil, K: 2}, http.StatusBadRequest, nil)
	big := make([]int32, 17)
	postJSON(t, ts.URL+"/nearest", wire.NearestRequest{Source: 0, Set: big, K: 2}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/nearest", wire.NearestRequest{Source: 0, Set: []int32{1, 99}, K: 2}, http.StatusBadRequest, nil)

	// Body-size cap: an oversized payload dies with 413 on every POST
	// endpoint, independent of its JSON content.
	huge := append(append([]byte(`{"source":0,"k":1,"edges":[],"set":[1`), bytes.Repeat([]byte(",1"), 300)...), []byte("]}")...)
	for _, ep := range []string{"/nearest", "/batch", "/update"} {
		resp, err := http.Post(ts.URL+ep, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: status %d, want 413", ep, len(huge), resp.StatusCode)
		}
	}

	// A live dynamic index cannot search: 409, not 500.
	dyn := dynamicCase(t, 30, 60, 23)
	_, dts := newTestServer(t, dyn.oracle, Config{})
	getJSON(t, dts.URL+"/knn?s=0&k=3", http.StatusConflict, nil)
	getJSON(t, dts.URL+"/range?s=0&r=2", http.StatusConflict, nil)
	postJSON(t, dts.URL+"/nearest", wire.NearestRequest{Source: 0, Set: []int32{1, 2}, K: 1}, http.StatusConflict, nil)
}
