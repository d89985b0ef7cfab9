package pll_test

// Search-capability conformance: KNN/Range/NearestIn answers must be
// exact (vs BFS/Dijkstra ground truth) and *identical* across every
// serving form of the same index — heap-built, heap-loaded, memory-
// mapped flat (lazy inversion), memory-mapped flat with the persisted
// search sections, and behind a ConcurrentOracle — because the result
// ordering contract (distance, then vertex ID, smallest IDs at a
// k-cutoff) leaves no room for implementation-defined variation.

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/pll"
)

// searchCase is one variant under test: an oracle plus its
// ground-truth distance rows.
type searchCase struct {
	name  string
	o     pll.Oracle
	truth func(s int32) []int64
	n     int
}

func searchCases(t *testing.T) []searchCase {
	t.Helper()
	const n, m, seed = 64, 160, 9
	var cases []searchCase

	gg := gen.ErdosRenyi(n, m, seed)
	pg, err := pll.NewGraph(n, gg.Edges())
	if err != nil {
		t.Fatal(err)
	}
	undirTruth := func(s int32) []int64 {
		row := bfs.AllDistances(gg, s)
		out := make([]int64, len(row))
		for i, d := range row {
			out[i] = int64(d)
		}
		return out
	}
	for _, bp := range []int{0, 8} {
		ix, err := pll.BuildIndex(pg, pll.WithBitParallel(bp), pll.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, searchCase{name: map[int]string{0: "undirected-bp0", 8: "undirected-bp8"}[bp], o: ix, truth: undirTruth, n: n})
	}

	dg := gen.RandomDigraph(n, 2*m, seed)
	arcs := make([]pll.Edge, 0, 2*m)
	for v := int32(0); v < int32(n); v++ {
		for _, u := range dg.OutNeighbors(v) {
			arcs = append(arcs, pll.Edge{U: v, V: u})
		}
	}
	pdg, err := pll.NewDigraph(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	dix, err := pll.BuildDirected(pdg, pll.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, searchCase{name: "directed", o: dix, truth: func(s int32) []int64 {
		row := bfs.DirectedAllDistances(dg, s, true)
		out := make([]int64, len(row))
		for i, d := range row {
			out[i] = int64(d)
		}
		return out
	}, n: n})

	wg := gen.RandomWeights(gg, 1, 9, seed+1)
	var wedges []pll.WeightedEdge
	for v := int32(0); v < int32(n); v++ {
		ws := wg.Weights(v)
		for i, u := range wg.Neighbors(v) {
			if v < u {
				wedges = append(wedges, pll.WeightedEdge{U: v, V: u, Weight: ws[i]})
			}
		}
	}
	pwg, err := pll.NewWeightedGraph(n, wedges)
	if err != nil {
		t.Fatal(err)
	}
	wix, err := pll.BuildWeighted(pwg, pll.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, searchCase{name: "weighted", o: wix, truth: func(s int32) []int64 {
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
	}, n: n})

	di, err := pll.BuildDynamic(pg, pll.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, searchCase{name: "frozen-dynamic", o: di.Freeze(), truth: undirTruth, n: n})
	return cases
}

// bruteSearch derives the expected answer set from a ground-truth row.
func bruteSearch(row []int64, s int32, radius int64, k int, members map[int32]bool) []pll.Neighbor {
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

// servingForms wraps one oracle in every production serving form. The
// returned map includes the persisted-search flat container, whose
// answers must match the lazily inverted forms byte for byte.
func servingForms(t *testing.T, tc searchCase) map[string]pll.Oracle {
	t.Helper()
	dir := t.TempDir()
	forms := map[string]pll.Oracle{"heap": tc.o}

	lazyPath := filepath.Join(dir, "lazy.pllbox")
	if err := pll.WriteFlatFile(lazyPath, tc.o); err != nil {
		t.Fatal(err)
	}
	lazy, err := pll.Open(lazyPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lazy.Close() })
	forms["flat-lazy"] = lazy

	persistPath := filepath.Join(dir, "search.pllbox")
	if err := pll.WriteFlatFile(persistPath, tc.o, pll.FlatSearch()); err != nil {
		t.Fatal(err)
	}
	persisted, err := pll.Open(persistPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { persisted.Close() })
	forms["flat-persisted"] = persisted

	// Heap-loading the persisted container must validate and keep the
	// inverted sections.
	heap2, err := pll.LoadFile(persistPath)
	if err != nil {
		t.Fatal(err)
	}
	forms["heap-loaded-v2"] = heap2

	forms["concurrent"] = pll.NewConcurrentOracle(tc.o)
	return forms
}

func TestSearchConformanceAllForms(t *testing.T) {
	for _, tc := range searchCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			members := map[int32]bool{}
			var memberList []int32
			for v := 0; v < tc.n; v += 3 {
				members[int32(v)] = true
				memberList = append(memberList, int32(v))
			}
			forms := servingForms(t, tc)
			// The heap form's answers double as the cross-form reference;
			// they are themselves checked against ground truth first.
			type key struct {
				form string
				q    string
			}
			answers := map[key][]byte{}
			for name, o := range forms {
				sr, ok := o.(pll.Searcher)
				if !ok {
					t.Fatalf("%s does not implement Searcher", name)
				}
				set, err := sr.NewVertexSet(memberList)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []int32{0, 7, int32(tc.n - 1)} {
					row := tc.truth(s)
					for _, k := range []int{1, 3, tc.n} {
						got, err := sr.KNN(s, k)
						if err != nil {
							t.Fatalf("%s: KNN: %v", name, err)
						}
						if want := bruteSearch(row, s, -1, k, nil); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
							t.Fatalf("%s: KNN(%d,%d) = %v, want %v", name, s, k, got, want)
						}
						b, _ := json.Marshal(got)
						answers[key{name, "knn"}] = append(answers[key{name, "knn"}], b...)

						gotIn, err := sr.NearestIn(s, set, k)
						if err != nil {
							t.Fatalf("%s: NearestIn: %v", name, err)
						}
						if want := bruteSearch(row, s, -1, k, members); !reflect.DeepEqual(gotIn, want) && !(len(gotIn) == 0 && len(want) == 0) {
							t.Fatalf("%s: NearestIn(%d,%d) = %v, want %v", name, s, k, gotIn, want)
						}
						b, _ = json.Marshal(gotIn)
						answers[key{name, "nearest"}] = append(answers[key{name, "nearest"}], b...)
					}
					for _, radius := range []int64{0, 2, 5} {
						got, err := sr.Range(s, radius)
						if err != nil {
							t.Fatalf("%s: Range: %v", name, err)
						}
						if want := bruteSearch(row, s, radius, 0, nil); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
							t.Fatalf("%s: Range(%d,%d) = %v, want %v", name, s, radius, got, want)
						}
						b, _ := json.Marshal(got)
						answers[key{name, "range"}] = append(answers[key{name, "range"}], b...)
					}
				}
			}
			// Byte-identity across forms: in particular the persisted
			// inverted sections must answer exactly like the lazy build.
			for _, q := range []string{"knn", "nearest", "range"} {
				ref := answers[key{"heap", q}]
				for name := range forms {
					if got := answers[key{name, q}]; string(got) != string(ref) {
						t.Fatalf("%s: %s answers differ from the heap form", name, q)
					}
				}
			}
		})
	}
}

// TestSearchPersistedSections pins the container plumbing: FlatSearch
// grows the file and Open still works on both.
func TestSearchPersistedSections(t *testing.T) {
	gg := gen.ErdosRenyi(40, 90, 5)
	pg, err := pll.NewGraph(40, gg.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.BuildIndex(pg, pll.WithBitParallel(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain, search := filepath.Join(dir, "p.pllbox"), filepath.Join(dir, "s.pllbox")
	if err := pll.WriteFlatFile(plain, ix); err != nil {
		t.Fatal(err)
	}
	if err := pll.WriteFlatFile(search, ix, pll.FlatSearch()); err != nil {
		t.Fatal(err)
	}
	sizeOf := func(p string) int64 {
		fi, err := pll.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer fi.Close()
		return fi.MappedBytes()
	}
	if sizeOf(search) <= sizeOf(plain) {
		t.Fatalf("FlatSearch did not grow the container (%d vs %d)", sizeOf(search), sizeOf(plain))
	}
}

// TestSearchConcurrent hammers fresh indexes from goroutines released
// together by a start barrier, so the very first queries race the lazy
// inversion build and the S^{-1} posting derivation — run under -race
// in CI. The reference answer comes from a separately built index,
// which leaves the indexes under test untouched until the barrier.
func TestSearchConcurrent(t *testing.T) {
	gg := gen.ErdosRenyi(80, 240, 21)
	pg, err := pll.NewGraph(80, gg.Edges())
	if err != nil {
		t.Fatal(err)
	}
	build := func() *pll.Index {
		ix, err := pll.BuildIndex(pg, pll.WithBitParallel(8))
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ref, err := build().KNN(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	ix := build()
	path := filepath.Join(t.TempDir(), "c.pllbox")
	if err := pll.WriteFlatFile(path, ix); err != nil {
		t.Fatal(err)
	}
	fi, err := pll.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fi.Close()

	for _, sr := range []pll.Searcher{ix, fi} {
		set, err := sr.NewVertexSet([]int32{1, 5, 9, 13, 44})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					s := int32((g*50 + i) % 80)
					if _, err := sr.KNN(s, 5); err != nil {
						t.Error(err)
						return
					}
					if _, err := sr.Range(s, 3); err != nil {
						t.Error(err)
						return
					}
					if _, err := sr.NearestIn(s, set, 2); err != nil {
						t.Error(err)
						return
					}
					got, err := sr.KNN(0, 10)
					if err != nil || !reflect.DeepEqual(got, ref) {
						t.Errorf("concurrent KNN diverged: %v (err %v)", got, err)
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}

// TestSearchCapabilityErrors pins the error surface: dynamic indexes
// cannot search, sets die with their snapshot, foreign sets are
// rejected, bad sources error instead of panicking.
func TestSearchCapabilityErrors(t *testing.T) {
	gg := gen.ErdosRenyi(30, 60, 13)
	pg, err := pll.NewGraph(30, gg.Edges())
	if err != nil {
		t.Fatal(err)
	}
	di, err := pll.BuildDynamic(pg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pll.Oracle(di).(pll.Searcher); ok {
		t.Fatal("DynamicIndex must not implement Searcher")
	}
	co := pll.NewConcurrentOracle(di)
	if _, err := co.KNN(0, 3); !errors.Is(err, pll.ErrNoSearch) {
		t.Fatalf("KNN on a wrapped dynamic index: err = %v, want ErrNoSearch", err)
	}

	ix, err := pll.BuildIndex(pg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.KNN(99, 3); err == nil {
		t.Fatal("KNN accepted an out-of-range source")
	}
	if _, err := ix.NearestIn(0, nil, 3); !errors.Is(err, pll.ErrForeignSet) {
		t.Fatalf("NearestIn(nil set): err = %v, want ErrForeignSet", err)
	}

	co = pll.NewConcurrentOracle(ix)
	set, err := co.NewVertexSet([]int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.NearestIn(0, set, 2); err != nil {
		t.Fatalf("NearestIn on the registering snapshot: %v", err)
	}
	ix2, err := pll.BuildIndex(pg)
	if err != nil {
		t.Fatal(err)
	}
	co.Swap(ix2)
	if _, err := co.NearestIn(0, set, 2); !errors.Is(err, pll.ErrStaleSet) {
		t.Fatalf("NearestIn after Swap: err = %v, want ErrStaleSet", err)
	}
	fresh, err := co.NewVertexSet([]int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.NearestIn(0, fresh, 2); err != nil {
		t.Fatalf("NearestIn after re-registering: %v", err)
	}
}
