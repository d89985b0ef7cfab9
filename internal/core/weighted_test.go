package core

import (
	"testing"
	"testing/quick"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/order"
	"pll/internal/rng"
)

func randomWeightedGraph(seed uint64, maxN int, maxW uint32) *graph.Weighted {
	g := randomGraph(seed, maxN)
	return gen.RandomWeights(g, 1, maxW, seed^0x77)
}

func TestWeightedMatchesDijkstra(t *testing.T) {
	check := func(seed uint64) bool {
		wg := randomWeightedGraph(seed, 50, 20)
		ix, err := BuildWeighted(wg, Options{Seed: seed})
		if err != nil {
			return false
		}
		n := int32(wg.NumVertices())
		r := rng.New(seed ^ 0xd1d1)
		for i := 0; i < 25; i++ {
			s, u := r.Int31n(n), r.Int31n(n)
			want := bfs.DijkstraDistance(wg, s, u)
			got := ix.Query(s, u)
			if want == bfs.InfWeight {
				if got != UnreachableW {
					return false
				}
			} else if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedUniformMatchesUnweighted(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 7)
	wg := graph.UniformWeighted(g, 1)
	wix, err := BuildWeighted(wg, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	uix := buildOrFail(t, g, Options{Seed: 3})
	for _, p := range randPairs(120, 200, 9) {
		got := wix.Query(p[0], p[1])
		want := uix.Query(p[0], p[1])
		if want == Unreachable {
			if got != UnreachableW {
				t.Fatalf("(%d,%d): weighted %d, unweighted unreachable", p[0], p[1], got)
			}
			continue
		}
		if got != uint64(want) {
			t.Fatalf("(%d,%d): weighted %d, unweighted %d", p[0], p[1], got, want)
		}
	}
}

func TestWeightedScaledWeightsScaleDistances(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 5)
	w1 := graph.UniformWeighted(g, 1)
	w7 := graph.UniformWeighted(g, 7)
	ix1, err := BuildWeighted(w1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix7, err := BuildWeighted(w7, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range randPairs(80, 100, 4) {
		d1, d7 := ix1.Query(p[0], p[1]), ix7.Query(p[0], p[1])
		if d1 == UnreachableW {
			if d7 != UnreachableW {
				t.Fatal("reachability mismatch")
			}
			continue
		}
		if d7 != 7*d1 {
			t.Fatalf("(%d,%d): d7=%d, want 7*%d", p[0], p[1], d7, d1)
		}
	}
}

func TestWeightedSelfAndDisconnected(t *testing.T) {
	wg, err := graph.NewWeighted(4, []graph.WeightedEdge{{U: 0, V: 1, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildWeighted(wg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Query(2, 2); d != 0 {
		t.Fatalf("self distance %d", d)
	}
	if d := ix.Query(0, 3); d != UnreachableW {
		t.Fatalf("disconnected distance %d", d)
	}
	if d := ix.Query(0, 1); d != 3 {
		t.Fatalf("edge distance %d, want 3", d)
	}
}

func TestWeightedZeroWeightEdges(t *testing.T) {
	wg, err := graph.NewWeighted(3, []graph.WeightedEdge{
		{U: 0, V: 1, Weight: 0},
		{U: 1, V: 2, Weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildWeighted(wg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Query(0, 2); d != 4 {
		t.Fatalf("distance with zero-weight edge = %d, want 4", d)
	}
}

func TestWeightedLabelStats(t *testing.T) {
	wg := randomWeightedGraph(5, 60, 10)
	ix, err := BuildWeighted(wg, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumVertices() != wg.NumVertices() {
		t.Fatal("vertex count mismatch")
	}
	if ix.ComputeStats().AvgLabelSize <= 0 {
		t.Fatal("average label size should be positive")
	}
	total := 0
	for v := int32(0); int(v) < wg.NumVertices(); v++ {
		total += ix.LabelSize(v)
	}
	if float64(total)/float64(wg.NumVertices()) != ix.ComputeStats().AvgLabelSize {
		t.Fatal("AvgLabelSize disagrees with per-vertex sizes")
	}
}

func TestWeightedCustomOrderValidation(t *testing.T) {
	wg := graph.UniformWeighted(gen.Path(4), 1)
	if _, err := BuildWeighted(wg, Options{CustomOrder: []int32{0}}); err == nil {
		t.Fatal("expected error for short order")
	}
	if _, err := BuildWeighted(wg, Options{CustomOrder: []int32{0, 0, 1, 2}}); err == nil {
		t.Fatal("expected error for duplicate order")
	}
}

func TestWeightedOrderingStrategies(t *testing.T) {
	wg := randomWeightedGraph(11, 50, 8)
	for _, s := range []order.Strategy{order.Degree, order.Random, order.Closeness} {
		ix, err := BuildWeighted(wg, Options{Ordering: s, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		n := int32(wg.NumVertices())
		r := rng.New(uint64(s) + 13)
		for i := 0; i < 20; i++ {
			a, b := r.Int31n(n), r.Int31n(n)
			want := bfs.DijkstraDistance(wg, a, b)
			got := ix.Query(a, b)
			if want == bfs.InfWeight {
				if got != UnreachableW {
					t.Fatalf("%v: reachability mismatch (%d,%d)", s, a, b)
				}
			} else if got != want {
				t.Fatalf("%v: Query(%d,%d)=%d, want %d", s, a, b, got, want)
			}
		}
	}
}

func BenchmarkWeightedConstruction(b *testing.B) {
	wg := gen.RandomWeights(gen.BarabasiAlbert(1000, 4, 1), 1, 100, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWeighted(wg, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightedQuery(b *testing.B) {
	wg := gen.RandomWeights(gen.BarabasiAlbert(5000, 4, 1), 1, 100, 2)
	ix, err := BuildWeighted(wg, Options{})
	if err != nil {
		b.Fatal(err)
	}
	pairs := randPairs(5000, 1024, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		ix.Query(p[0], p[1])
	}
}
