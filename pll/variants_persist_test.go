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
