package core

import (
	"testing"
	"testing/quick"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
)

func TestWeightedQueryPathValid(t *testing.T) {
	check := func(seed uint64) bool {
		wg := randomWeightedGraph(seed, 40, 12)
		ix, err := BuildWeighted(wg, Options{Seed: seed, StorePaths: true})
		if err != nil {
			return false
		}
		n := int32(wg.NumVertices())
		r := rng.New(seed ^ 0x9afe)
		for i := 0; i < 15; i++ {
			s, u := r.Int31n(n), r.Int31n(n)
			truth := bfs.DijkstraDistance(wg, s, u)
			p, w, err := ix.Path(s, u)
			if err != nil {
				return false
			}
			if truth == bfs.InfWeight {
				if p != nil || w != Unreachable {
					return false
				}
				continue
			}
			if uint64(w) != truth || len(p) == 0 || p[0] != s || p[len(p)-1] != u {
				return false
			}
			// The path must exist and its edge weights must sum to w.
			sum := uint64(0)
			for j := 1; j < len(p); j++ {
				wt, ok := edgeWeight(wg, p[j-1], p[j])
				if !ok {
					return false
				}
				sum += uint64(wt)
			}
			if sum != uint64(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func edgeWeight(g *graph.Weighted, a, b int32) (uint32, bool) {
	ws := g.Weights(a)
	for i, u := range g.Neighbors(a) {
		if u == b {
			return ws[i], true
		}
	}
	return 0, false
}

func TestWeightedQueryPathSelf(t *testing.T) {
	wg := graph.UniformWeighted(gen.Path(5), 3)
	ix, err := BuildWeighted(wg, Options{StorePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	p, w, err := ix.Path(2, 2)
	if err != nil || w != 0 || len(p) != 1 {
		t.Fatalf("self path = %v, %d, %v", p, w, err)
	}
	if !ix.HasPaths() {
		t.Fatal("HasPaths should be true")
	}
}

func TestWeightedQueryPathRequiresStorePaths(t *testing.T) {
	wg := graph.UniformWeighted(gen.Path(5), 1)
	ix, err := BuildWeighted(wg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Path(0, 4); err == nil {
		t.Fatal("expected error without StorePaths")
	}
	if ix.HasPaths() {
		t.Fatal("HasPaths should be false")
	}
}

func TestWeightedSaveRejectsParents(t *testing.T) {
	wg := graph.UniformWeighted(gen.Path(5), 1)
	ix, err := BuildWeighted(wg, Options{StorePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	var sink discardWriter
	if _, err := ix.WriteTo(&sink); err == nil {
		t.Fatal("expected error saving a path-storing weighted index")
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
