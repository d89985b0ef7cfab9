package core

import (
	"math/rand"
	"sort"
	"testing"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/order"
	"pll/internal/rng"
	"pll/internal/trace"
)

// bruteNeighbors derives the expected search answers from a
// ground-truth distance row: exclude the source, keep reachable
// vertices, order by (distance, vertex), trim to k keeping smallest
// IDs at the cutoff (k <= 0 means no trim, i.e. a range query's full
// set).
func bruteNeighbors(dist []int64, s int32, radius int64, k int) []Neighbor {
	var out []Neighbor
	for v, d := range dist {
		if int32(v) == s || d < 0 {
			continue
		}
		if radius >= 0 && d > radius {
			continue
		}
		out = append(out, Neighbor{Vertex: int32(v), Distance: d})
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

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// searchOracle is the per-variant query surface under test.
type searchOracle interface {
	KNN(s int32, k int, p *trace.QueryProfile) []Neighbor
	SearchRange(s int32, radius int64) []Neighbor
	NewVertexSet(members []int32) (*VertexSet, error)
	KNNIn(s int32, set *VertexSet, k int) ([]Neighbor, error)
}

// checkSearch cross-validates KNN, SearchRange and KNNIn against the
// ground-truth row oracle for a handful of sources, k values and
// radii.
func checkSearch(t *testing.T, name string, n int, o searchOracle, truth func(s int32) []int64) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	members := make([]int32, 0, n/3+1)
	for v := 0; v < n; v++ {
		if r.Intn(3) == 0 {
			members = append(members, int32(v))
		}
	}
	if len(members) == 0 {
		members = append(members, int32(0))
	}
	set, err := o.NewVertexSet(members)
	if err != nil {
		t.Fatalf("%s: NewVertexSet: %v", name, err)
	}
	inSet := make(map[int32]bool, len(members))
	for _, m := range members {
		inSet[m] = true
	}

	sources := []int32{0, int32(n - 1)}
	for i := 0; i < 6; i++ {
		sources = append(sources, int32(r.Intn(n)))
	}
	for _, s := range sources {
		row := truth(s)
		var maxd int64
		for _, d := range row {
			if d > maxd {
				maxd = d
			}
		}
		for _, k := range []int{1, 2, 5, n / 2, n, n + 7} {
			if k <= 0 {
				continue
			}
			got := o.KNN(s, k, nil)
			want := bruteNeighbors(row, s, -1, k)
			if !neighborsEqual(got, want) {
				t.Fatalf("%s: KNN(%d, %d) = %v, want %v", name, s, k, got, want)
			}
			gotIn, err := o.KNNIn(s, set, k)
			if err != nil {
				t.Fatalf("%s: KNNIn(%d, %d): %v", name, s, k, err)
			}
			rowIn := make([]int64, len(row))
			for v := range rowIn {
				if inSet[int32(v)] {
					rowIn[v] = row[v]
				} else {
					rowIn[v] = -1
				}
			}
			wantIn := bruteNeighbors(rowIn, s, -1, k)
			if !neighborsEqual(gotIn, wantIn) {
				t.Fatalf("%s: KNNIn(%d, %d) = %v, want %v", name, s, k, gotIn, wantIn)
			}
		}
		for _, radius := range []int64{0, 1, 2, maxd / 2, maxd, maxd + 3} {
			got := o.SearchRange(s, radius)
			want := bruteNeighbors(row, s, radius, 0)
			if !neighborsEqual(got, want) {
				t.Fatalf("%s: SearchRange(%d, %d) = %v, want %v", name, s, radius, got, want)
			}
		}
	}
}

func TestSearchUndirected(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		bp   int
	}{
		{"sparse-bp0", gen.ErdosRenyi(60, 90, 7), 0},
		{"sparse-bp4", gen.ErdosRenyi(60, 90, 7), 4},
		{"dense-bp8", gen.ErdosRenyi(80, 400, 7), 8},
		{"tiny-bp2", gen.ErdosRenyi(9, 10, 7), 2},
		// One root of this hub graph selects 64 neighbours, so searches
		// read every mask bit, 32–63 included.
		{"hub-bp16", gen.BarabasiAlbert(1000, 5, 7), 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			ix, err := Build(g, Options{Ordering: order.Degree, Seed: 7, NumBitParallel: tc.bp})
			if err != nil {
				t.Fatal(err)
			}
			checkSearch(t, tc.name, g.NumVertices(), ix, func(s int32) []int64 {
				row := bfs.AllDistances(g, s)
				out := make([]int64, len(row))
				for i, d := range row {
					out[i] = int64(d)
				}
				return out
			})
		})
	}
}

// TestSearchScanBudget gates hub-search work on a count that repeats
// exactly: the entries KNN (k=10) and Range (radius 2) advance over
// for 64 sources of a hub graph at bp=16. The merge these keys replaced
// waited a fixed slack of 2 on every bit-parallel key and scanned
// 270,632 and 385,645 entries here; either sum past a quarter of that
// fails.
func TestSearchScanBudget(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 5, 20130622)
	ix, err := Build(g, Options{NumBitParallel: 16})
	if err != nil {
		t.Fatal(err)
	}
	inv := ix.Inverted()
	r := rng.New(7)
	var knn, within int64
	for i := 0; i < 64; i++ {
		rs := ix.rank[r.Int31n(2000)]
		runs, s1, s0 := ix.SourceRuns(rs)
		sc := ix.GetScratch()
		inv.KNN(runs, rs, s1, s0, 10, sc)
		knn += sc.Scanned
		inv.Range(runs, rs, s1, s0, 2, sc)
		within += sc.Scanned
		ix.PutScratch(sc)
	}
	t.Logf("entries scanned over 64 sources: KNN(k=10) %d, Range(radius=2) %d", knn, within)
	if knn > 270632/4 || within > 385645/4 {
		t.Fatalf("scanned KNN %d / Range %d entries, budget %d / %d", knn, within, 270632/4, 385645/4)
	}
}

func TestSearchUndirectedPaths(t *testing.T) {
	g := gen.ErdosRenyi(50, 80, 11)
	ix, err := Build(g, Options{Ordering: order.Degree, Seed: 11, StorePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSearch(t, "paths", 50, ix, func(s int32) []int64 {
		row := bfs.AllDistances(g, s)
		out := make([]int64, len(row))
		for i, d := range row {
			out[i] = int64(d)
		}
		return out
	})
}

func TestSearchDirected(t *testing.T) {
	n := 70
	dg := gen.RandomDigraph(n, 200, 13)
	ix, err := BuildDirected(dg, Options{Ordering: order.Degree, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	checkSearch(t, "directed", n, ix, func(s int32) []int64 {
		row := bfs.DirectedAllDistances(dg, s, true)
		out := make([]int64, len(row))
		for i, d := range row {
			out[i] = int64(d)
		}
		return out
	})
}

func TestSearchWeighted(t *testing.T) {
	n := 60
	gg := gen.ErdosRenyi(n, 140, 17)
	wg := gen.RandomWeights(gg, 1, 9, 18)
	ix, err := BuildWeighted(wg, Options{Ordering: order.Degree, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	checkSearch(t, "weighted", n, ix, func(s int32) []int64 {
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
	})
}

// TestSearchDisconnected pins the edge cases: isolated sources return
// nothing, unreachable vertices never appear, k larger than the
// component returns the whole component.
func TestSearchDisconnected(t *testing.T) {
	// Two components {0,1,2} and {3,4}, vertex 5 isolated.
	g, err := graph.NewGraph(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{NumBitParallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.KNN(5, 4, nil); len(got) != 0 {
		t.Fatalf("KNN from isolated vertex = %v, want empty", got)
	}
	if got := ix.SearchRange(5, 10); len(got) != 0 {
		t.Fatalf("SearchRange from isolated vertex = %v, want empty", got)
	}
	got := ix.KNN(0, 10, nil)
	want := []Neighbor{{Vertex: 1, Distance: 1}, {Vertex: 2, Distance: 2}}
	if !neighborsEqual(got, want) {
		t.Fatalf("KNN(0, 10) = %v, want %v", got, want)
	}
	if got := ix.KNN(3, 10, nil); !neighborsEqual(got, []Neighbor{{Vertex: 4, Distance: 1}}) {
		t.Fatalf("KNN(3, 10) = %v", got)
	}
}

// TestSearchSetValidation pins the registration error paths.
func TestSearchSetValidation(t *testing.T) {
	g := gen.ErdosRenyi(20, 40, 3)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.NewVertexSet([]int32{0, 21}); err == nil {
		t.Fatal("NewVertexSet accepted an out-of-range member")
	}
	other, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := other.NewVertexSet([]int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.KNNIn(0, set, 2); err != ErrForeignSet {
		t.Fatalf("KNNIn with a foreign set: err = %v, want ErrForeignSet", err)
	}
	// Duplicates collapse.
	dup, err := ix.NewVertexSet([]int32{4, 4, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if dup.Size() != 2 {
		t.Fatalf("set of {4,4,4,5} has size %d, want 2", dup.Size())
	}
}

// TestSearchStats pins the hub-occupancy fields: the path graph
// 0-1-2-3 under a fixed order has a predictable inversion.
func TestSearchStats(t *testing.T) {
	g, err := graph.NewGraph(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.ComputeStats()
	if st.DistinctHubs <= 0 || st.MaxHubLoad <= 0 || st.AvgHubLoad <= 0 {
		t.Fatalf("hub occupancy not populated: %+v", st)
	}
	if int64(st.DistinctHubs)*int64(st.MaxHubLoad) < st.TotalLabelEntries {
		t.Fatalf("occupancy inconsistent with label mass: %+v", st)
	}
}
