package pll

import (
	"bytes"
	"testing"
)

func TestPublicWeightedPersistence(t *testing.T) {
	g, err := NewWeightedGraph(4, []WeightedEdge{
		{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 3}, {U: 2, V: 3, Weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildWeighted(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.(*WeightedIndex); !ok {
		t.Fatalf("loaded %T, want *WeightedIndex", loaded)
	}
	if loaded.Distance(0, 3) != 9 {
		t.Fatalf("loaded weighted distance = %d, want 9", loaded.Distance(0, 3))
	}
	path := t.TempDir() + "/w.pll"
	if err := WriteFlatFile(path, ix); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Distance(1, 3) != 7 {
		t.Fatal("file round trip wrong")
	}
}

func TestPublicWeightedPath(t *testing.T) {
	g, err := NewWeightedGraph(4, []WeightedEdge{
		{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 3}, {U: 0, V: 2, Weight: 10}, {U: 2, V: 3, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildWeighted(g, WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	p, w, err := ix.PathWeight(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w != 6 || len(p) != 4 || p[0] != 0 || p[3] != 3 {
		t.Fatalf("weighted path = %v (w=%d), want 0-1-2-3 at weight 6", p, w)
	}
}

// TestPublicWeightedPathZeroWeightEdges: over zero-weight edges a
// Dijkstra-tree chain has more steps than its weight, so the parent
// walk must not be bounded by the label distance the way hop-count
// chains are. For every pair and several vertex orders (hub at either
// end of the zero-weight chain), Path and PathWeight must agree with
// Distance.
func TestPublicWeightedPathZeroWeightEdges(t *testing.T) {
	const n = 5 // vertex 4 isolated
	edges := []WeightedEdge{{U: 0, V: 1, Weight: 0}, {U: 1, V: 2, Weight: 0}, {U: 2, V: 3, Weight: 5}}
	g, err := NewWeightedGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	weight := func(a, b int32) (int64, bool) {
		for _, e := range edges {
			if (e.U == a && e.V == b) || (e.U == b && e.V == a) {
				return int64(e.Weight), true
			}
		}
		return 0, false
	}
	orders := map[string][]Option{
		"default":     nil,
		"hub-0-first": {WithCustomOrder([]int32{0, 1, 2, 3, 4})},
		"hub-3-first": {WithCustomOrder([]int32{3, 2, 1, 0, 4})},
	}
	for name, opts := range orders {
		ix, err := BuildWeighted(g, append(opts, WithPaths())...)
		if err != nil {
			t.Fatal(err)
		}
		if p, w, err := ix.PathWeight(0, 2); err != nil || w != 0 || len(p) != 3 {
			t.Fatalf("%s: PathWeight(0,2) = %v, %d, %v; want [0 1 2] at weight 0", name, p, w, err)
		}
		for s := int32(0); s < n; s++ {
			for u := int32(0); u < n; u++ {
				want := ix.Distance(s, u)
				p, err := ix.Path(s, u)
				if err != nil {
					t.Fatalf("%s: Path(%d,%d): %v", name, s, u, err)
				}
				pw, w, err := ix.PathWeight(s, u)
				if err != nil {
					t.Fatalf("%s: PathWeight(%d,%d): %v", name, s, u, err)
				}
				if w != want {
					t.Fatalf("%s: PathWeight(%d,%d) weight %d, Distance %d", name, s, u, w, want)
				}
				if want == Unreachable {
					if p != nil || pw != nil {
						t.Fatalf("%s: unreachable (%d,%d) has path %v / %v", name, s, u, p, pw)
					}
					continue
				}
				if len(p) == 0 || p[0] != s || p[len(p)-1] != u || len(pw) != len(p) {
					t.Fatalf("%s: Path(%d,%d) = %v, PathWeight path %v", name, s, u, p, pw)
				}
				sum := int64(0)
				for i := 1; i < len(p); i++ {
					ew, ok := weight(p[i-1], p[i])
					if !ok {
						t.Fatalf("%s: Path(%d,%d) = %v uses a non-edge", name, s, u, p)
					}
					sum += ew
				}
				if sum != want {
					t.Fatalf("%s: Path(%d,%d) = %v weighs %d, Distance %d", name, s, u, p, sum, want)
				}
			}
		}
	}
}

func TestPublicDirectedPath(t *testing.T) {
	g, err := NewDigraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildDirected(g, WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ix.Path(0, 2)
	if err != nil || len(p) != 3 {
		t.Fatalf("directed path = %v, %v", p, err)
	}
	p, err = ix.Path(2, 0)
	if err != nil || p != nil {
		t.Fatalf("unreachable path = %v, %v", p, err)
	}
}

func TestPublicDirectedPersistence(t *testing.T) {
	g, err := NewDigraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildDirected(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.(*DirectedIndex); !ok {
		t.Fatalf("loaded %T, want *DirectedIndex", loaded)
	}
	if loaded.Distance(0, 2) != 2 || loaded.Distance(2, 0) != Unreachable {
		t.Fatal("loaded directed distances wrong")
	}
	path := t.TempDir() + "/d.pll"
	if err := WriteFlatFile(path, ix); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Distance(0, 1) != 1 {
		t.Fatal("file round trip wrong")
	}
}
