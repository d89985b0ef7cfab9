package core

import (
	"testing"
	"testing/quick"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
)

func TestDirectedCycle(t *testing.T) {
	// Directed 4-cycle: distances are asymmetric.
	g, err := graph.NewDigraph(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildDirected(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Query(0, 3); d != 3 {
		t.Fatalf("0->3 = %d, want 3", d)
	}
	if d := ix.Query(3, 0); d != 1 {
		t.Fatalf("3->0 = %d, want 1", d)
	}
}

func TestDirectedOneWay(t *testing.T) {
	g, err := graph.NewDigraph(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildDirected(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Query(0, 2); d != 2 {
		t.Fatalf("0->2 = %d, want 2", d)
	}
	if d := ix.Query(2, 0); d != Unreachable {
		t.Fatalf("2->0 = %d, want Unreachable", d)
	}
	if d := ix.Query(1, 1); d != 0 {
		t.Fatalf("self = %d, want 0", d)
	}
}

func TestDirectedMatchesBFSRandom(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(40) + 3
		g := gen.RandomDigraph(n, int64(r.Intn(4*n)+1), seed)
		ix, err := BuildDirected(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		rr := rng.New(seed ^ 0xd1e)
		for i := 0; i < 25; i++ {
			s, u := rr.Int31n(int32(n)), rr.Int31n(int32(n))
			want := bfs.DirectedDistance(g, s, u)
			got := ix.Query(s, u)
			if want == bfs.Unreachable {
				if got != Unreachable {
					return false
				}
			} else if got != int(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedSymmetricGraphMatchesUndirected(t *testing.T) {
	// A digraph with both arc directions for every edge behaves like the
	// undirected graph.
	und := gen.BarabasiAlbert(80, 2, 9)
	var arcs []graph.Edge
	for _, e := range und.Edges() {
		arcs = append(arcs, e, graph.Edge{U: e.V, V: e.U})
	}
	dg, err := graph.NewDigraph(80, arcs)
	if err != nil {
		t.Fatal(err)
	}
	dix, err := BuildDirected(dg, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	uix := buildOrFail(t, und, Options{Seed: 4})
	for _, p := range randPairs(80, 150, 6) {
		if dix.Query(p[0], p[1]) != uix.Query(p[0], p[1]) {
			t.Fatalf("(%d,%d): directed %d vs undirected %d",
				p[0], p[1], dix.Query(p[0], p[1]), uix.Query(p[0], p[1]))
		}
	}
}

func TestDirectedStats(t *testing.T) {
	g := gen.RandomDigraph(60, 200, 3)
	ix, err := BuildDirected(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumVertices() != 60 {
		t.Fatal("vertex count mismatch")
	}
	if ix.ComputeStats().AvgLabelSize <= 0 {
		t.Fatal("avg label size should be positive")
	}
}

func TestDirectedCustomOrderValidation(t *testing.T) {
	g := gen.RandomDigraph(5, 8, 1)
	if _, err := BuildDirected(g, Options{CustomOrder: []int32{0, 1}}); err == nil {
		t.Fatal("expected error for short order")
	}
}

func BenchmarkDirectedConstruction(b *testing.B) {
	g := gen.RandomDigraph(1000, 5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDirected(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectedQuery(b *testing.B) {
	g := gen.RandomDigraph(5000, 30000, 1)
	ix, err := BuildDirected(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	pairs := randPairs(5000, 1024, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		ix.Query(p[0], p[1])
	}
}
