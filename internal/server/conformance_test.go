package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
	"pll/internal/wire"
	"pll/pll"
)

// The conformance suite builds every index variant on random graphs
// and checks /distance, /batch and /path answers against the BFS and
// Dijkstra ground truths, going through the exact code path production
// traffic takes: ConcurrentOracle -> handler -> JSON.

// variantCase wires one oracle to its baseline.
type variantCase struct {
	name   string
	oracle pll.Oracle
	// dist returns the ground-truth distance from s to every vertex.
	dist func(s int32) []int64
	// hop returns the weight of the edge/arc u->v, or -1 if absent
	// (used to validate /path answers); nil when paths are unsupported.
	hop func(u, v int32) int64
	n   int
}

// toInt64 widens a BFS distance row.
func toInt64(row []int32) []int64 {
	out := make([]int64, len(row))
	for i, d := range row {
		out[i] = int64(d)
	}
	return out
}

// undirectedCase builds the static undirected index (WithPaths) over
// an Erdos-Renyi graph.
func undirectedCase(t *testing.T, n int, m int64, seed uint64) variantCase {
	t.Helper()
	gg := gen.ErdosRenyi(n, m, seed)
	pg, err := pll.NewGraph(n, gg.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.Build(pg, pll.WithPaths(), pll.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return variantCase{
		name:   "undirected",
		oracle: ix,
		dist:   func(s int32) []int64 { return toInt64(bfs.AllDistances(gg, s)) },
		hop: func(u, v int32) int64 {
			for _, nb := range gg.Neighbors(u) {
				if nb == v {
					return 1
				}
			}
			return -1
		},
		n: n,
	}
}

// directedCase builds the directed index over a random digraph;
// withPaths additionally stores parent pointers (required for the
// /path checks, unsupported by the serialized formats).
func directedCase(t *testing.T, n int, m int64, seed uint64, withPaths bool) variantCase {
	t.Helper()
	dg := gen.RandomDigraph(n, m, seed)
	arcs := make([]pll.Edge, 0, m)
	for v := int32(0); v < int32(n); v++ {
		for _, u := range dg.OutNeighbors(v) {
			arcs = append(arcs, pll.Edge{U: v, V: u})
		}
	}
	pg, err := pll.NewDigraph(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	opts := []pll.Option{pll.WithSeed(seed)}
	if withPaths {
		opts = append(opts, pll.WithPaths())
	}
	ix, err := pll.BuildDirected(pg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return variantCase{
		name:   "directed",
		oracle: ix,
		dist:   func(s int32) []int64 { return toInt64(bfs.DirectedAllDistances(dg, s, true)) },
		hop: func(u, v int32) int64 {
			for _, nb := range dg.OutNeighbors(u) {
				if nb == v {
					return 1
				}
			}
			return -1
		},
		n: n,
	}
}

// weightedCase builds the weighted index over a random graph with
// weights in [1,10]; withPaths as in directedCase.
func weightedCase(t *testing.T, n int, m int64, seed uint64, withPaths bool) variantCase {
	t.Helper()
	gg := gen.ErdosRenyi(n, m, seed)
	wg := gen.RandomWeights(gg, 1, 10, seed+1)
	var edges []pll.WeightedEdge
	for v := int32(0); v < int32(n); v++ {
		ws := wg.Weights(v)
		for i, u := range wg.Neighbors(v) {
			if v < u {
				edges = append(edges, pll.WeightedEdge{U: v, V: u, Weight: ws[i]})
			}
		}
	}
	pg, err := pll.NewWeightedGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	opts := []pll.Option{pll.WithSeed(seed)}
	if withPaths {
		opts = append(opts, pll.WithPaths())
	}
	ix, err := pll.BuildWeighted(pg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return variantCase{
		name:   "weighted",
		oracle: ix,
		dist: func(s int32) []int64 {
			row := bfs.DijkstraAll(wg, s)
			out := make([]int64, len(row))
			for i, d := range row {
				if d == bfs.InfWeight {
					out[i] = -1
				} else {
					out[i] = int64(d)
				}
			}
			return out
		},
		hop: func(u, v int32) int64 {
			ws := wg.Weights(u)
			for i, nb := range wg.Neighbors(u) {
				if nb == v {
					return int64(ws[i])
				}
			}
			return -1
		},
		n: n,
	}
}

// dynamicCase builds the dynamic index over the same random graph (no
// paths; updates are exercised separately).
func dynamicCase(t *testing.T, n int, m int64, seed uint64) variantCase {
	t.Helper()
	gg := gen.ErdosRenyi(n, m, seed)
	pg, err := pll.NewGraph(n, gg.Edges())
	if err != nil {
		t.Fatal(err)
	}
	di, err := pll.BuildDynamic(pg, pll.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return variantCase{
		name:   "dynamic",
		oracle: di,
		dist:   func(s int32) []int64 { return toInt64(bfs.AllDistances(gg, s)) },
		n:      n,
	}
}

// flatVariant round-trips a case's oracle through WriteFlatFile + Open
// so the same ground-truth checks run against the memory-mapped
// zero-copy FlatIndex, through the same handlers (its /batch answers
// flow through the Batcher capability). withPaths=false drops the
// /path checks for variants whose flat form cannot carry parents.
func flatVariant(t *testing.T, base variantCase, withPaths bool) variantCase {
	t.Helper()
	path := filepath.Join(t.TempDir(), base.name+".pllbox")
	if err := pll.WriteFlatFile(path, base.oracle); err != nil {
		t.Fatal(err)
	}
	fi, err := pll.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fi.Close() })
	out := base
	out.name = "flat-" + base.name
	out.oracle = fi
	if !withPaths {
		out.hop = nil
	}
	return out
}

// checkVariant drives tc.oracle through httptest handlers and compares
// every answer with the baseline.
func checkVariant(t *testing.T, tc variantCase) {
	t.Helper()
	_, ts := newTestServer(t, tc.oracle, Config{CacheSize: 256})
	r := rng.New(99)

	// Single-source /batch sweeps from a few sources cover every target.
	targets := make([]int32, tc.n)
	for i := range targets {
		targets[i] = int32(i)
	}
	for _, src := range []int32{0, r.Int31n(int32(tc.n)), int32(tc.n - 1)} {
		want := tc.dist(src)
		var resp struct {
			Distances []int64 `json:"distances"`
		}
		postJSON(t, ts.URL+"/batch", wire.BatchRequest{Source: &src, Targets: targets},
			http.StatusOK, &resp)
		if len(resp.Distances) != tc.n {
			t.Fatalf("%s: batch returned %d distances", tc.name, len(resp.Distances))
		}
		for tt, got := range resp.Distances {
			if got != want[tt] {
				t.Fatalf("%s: batch d(%d,%d) = %d, want %d", tc.name, src, tt, got, want[tt])
			}
		}
	}

	// Random /distance spot checks (also exercises the cache) and, when
	// supported, /path validation: right endpoints, every hop a real
	// edge, total weight exactly the shortest distance.
	for i := 0; i < 25; i++ {
		s := r.Int31n(int32(tc.n))
		tt := r.Int31n(int32(tc.n))
		want := tc.dist(s)[tt]
		var dr distanceResponse
		getJSON(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, s, tt), http.StatusOK, &dr)
		if dr.Distance != want {
			t.Fatalf("%s: d(%d,%d) = %d, want %d", tc.name, s, tt, dr.Distance, want)
		}
		if tc.hop == nil {
			continue
		}
		var pr struct {
			Path      []int32 `json:"path"`
			Reachable bool    `json:"reachable"`
		}
		getJSON(t, fmt.Sprintf("%s/path?s=%d&t=%d", ts.URL, s, tt), http.StatusOK, &pr)
		if want == -1 {
			if pr.Reachable {
				t.Fatalf("%s: path(%d,%d) exists for a disconnected pair", tc.name, s, tt)
			}
			continue
		}
		if !pr.Reachable || len(pr.Path) == 0 || pr.Path[0] != s || pr.Path[len(pr.Path)-1] != tt {
			t.Fatalf("%s: path(%d,%d) = %v (reachable=%v)", tc.name, s, tt, pr.Path, pr.Reachable)
		}
		total := int64(0)
		for j := 0; j+1 < len(pr.Path); j++ {
			w := tc.hop(pr.Path[j], pr.Path[j+1])
			if w < 0 {
				t.Fatalf("%s: path(%d,%d) uses nonexistent edge %d->%d",
					tc.name, s, tt, pr.Path[j], pr.Path[j+1])
			}
			total += w
		}
		if total != want {
			t.Fatalf("%s: path(%d,%d) has weight %d, want %d", tc.name, s, tt, total, want)
		}
	}
}

func TestConformanceAllVariants(t *testing.T) {
	const (
		n    = 60
		m    = 150
		seed = 7
	)
	cases := []variantCase{
		undirectedCase(t, n, m, seed),
		directedCase(t, n, m, seed, true),
		weightedCase(t, n, m, seed, true),
		dynamicCase(t, n, m, seed),
	}
	// The same ground truths re-checked against memory-mapped flat
	// containers of each variant. The flat directed/weighted formats
	// cannot serialize parent pointers, so those two cases rebuild
	// path-free on their own graphs.
	cases = append(cases,
		flatVariant(t, cases[0], true), // undirected: flat keeps parents
		flatVariant(t, cases[3], false),
		flatVariant(t, directedCase(t, n, m, seed+1, false), false),
		flatVariant(t, weightedCase(t, n, m, seed+1, false), false),
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkVariant(t, tc) })
	}
}

// TestConformanceDynamicAfterUpdates inserts held-out edges through
// POST /update and re-checks every distance against BFS on the full
// graph — the server-path version of the paper's incremental-update
// exactness claim.
func TestConformanceDynamicAfterUpdates(t *testing.T) {
	const (
		n    = 50
		m    = 120
		seed = 11
		hold = 15
	)
	full := gen.ErdosRenyi(n, m, seed)
	edges := full.Edges()
	if len(edges) <= hold {
		t.Fatal("graph too small for holdout")
	}
	initial := edges[:len(edges)-hold]
	held := edges[len(edges)-hold:]

	pg, err := pll.NewGraph(n, initial)
	if err != nil {
		t.Fatal(err)
	}
	di, err := pll.BuildDynamic(pg, pll.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, di, Config{CacheSize: 128})

	// Baseline before updates.
	gInit, err := graph.NewGraph(n, initial)
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Distances []int64 `json:"distances"`
	}
	targets := make([]int32, n)
	for i := range targets {
		targets[i] = int32(i)
	}
	src := int32(0)
	postJSON(t, ts.URL+"/batch", wire.BatchRequest{Source: &src, Targets: targets}, http.StatusOK, &resp)
	for tt, got := range resp.Distances {
		if want := int64(bfs.AllDistances(gInit, src)[tt]); got != want {
			t.Fatalf("pre-update d(0,%d) = %d, want %d", tt, got, want)
		}
	}

	// Stream the held-out edges in through the handler.
	upd := make([][2]int32, len(held))
	for i, e := range held {
		upd[i] = [2]int32{e.U, e.V}
	}
	postJSON(t, ts.URL+"/update", updateRequest{Edges: upd}, http.StatusOK, nil)

	// Every pair must now match BFS on the full graph.
	for _, src := range []int32{0, 17, int32(n - 1)} {
		want := bfs.AllDistances(full, src)
		postJSON(t, ts.URL+"/batch", wire.BatchRequest{Source: &src, Targets: targets}, http.StatusOK, &resp)
		for tt, got := range resp.Distances {
			if got != int64(want[tt]) {
				t.Fatalf("post-update d(%d,%d) = %d, want %d", src, tt, got, want[tt])
			}
		}
	}
}
