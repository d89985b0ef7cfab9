package core

import (
	"testing"
	"testing/quick"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
)

// hasArc reports whether the digraph has the arc a -> b.
func hasArc(g *graph.Digraph, a, b int32) bool {
	for _, u := range g.OutNeighbors(a) {
		if u == b {
			return true
		}
	}
	return false
}

func TestDirectedQueryPathValid(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(35) + 3
		g := gen.RandomDigraph(n, int64(r.Intn(4*n)+n), seed)
		ix, err := BuildDirected(g, Options{Seed: seed, StorePaths: true})
		if err != nil {
			return false
		}
		rr := rng.New(seed ^ 0xd1ec7)
		for i := 0; i < 15; i++ {
			s, u := rr.Int31n(int32(n)), rr.Int31n(int32(n))
			want := bfs.DirectedDistance(g, s, u)
			p, _, err := ix.Path(s, u)
			if err != nil {
				return false
			}
			if want == bfs.Unreachable {
				if p != nil {
					return false
				}
				continue
			}
			if len(p) != int(want)+1 || p[0] != s || p[len(p)-1] != u {
				return false
			}
			for j := 1; j < len(p); j++ {
				if !hasArc(g, p[j-1], p[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedQueryPathOneWay(t *testing.T) {
	g, err := graph.NewDigraph(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildDirected(g, Options{StorePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := ix.Path(0, 3)
	if err != nil || len(p) != 4 {
		t.Fatalf("forward path = %v, %v", p, err)
	}
	p, _, err = ix.Path(3, 0)
	if err != nil || p != nil {
		t.Fatalf("reverse path should be nil, got %v, %v", p, err)
	}
	pSelf, _, err := ix.Path(2, 2)
	if err != nil || len(pSelf) != 1 {
		t.Fatalf("self path = %v, %v", pSelf, err)
	}
	if !ix.HasPaths() {
		t.Fatal("HasPaths should be true")
	}
}

func TestDirectedQueryPathRequiresStorePaths(t *testing.T) {
	g := gen.RandomDigraph(5, 10, 1)
	ix, err := BuildDirected(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Path(0, 1); err == nil {
		t.Fatal("expected error without StorePaths")
	}
	if ix.HasPaths() {
		t.Fatal("HasPaths should be false")
	}
}

func TestDirectedSaveRejectsParents(t *testing.T) {
	g := gen.RandomDigraph(5, 10, 1)
	ix, err := BuildDirected(g, Options{StorePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	var sink discardWriter
	if _, err := ix.WriteTo(&sink); err == nil {
		t.Fatal("expected error saving a path-storing directed index")
	}
}
