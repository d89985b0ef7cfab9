package pll

import (
	"path/filepath"
	"strings"
	"testing"
)

func square() *Graph {
	g, err := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if err != nil {
		panic(err)
	}
	return g
}

func TestPublicQuickstart(t *testing.T) {
	g := square()
	ix, err := Build(g, WithBitParallel(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Distance(0, 2); d != 2 {
		t.Fatalf("Distance(0,2) = %d, want 2", d)
	}
	if d := ix.Distance(0, 0); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	if ix.NumVertices() != 4 {
		t.Fatal("vertex count wrong")
	}
}

func TestPublicPath(t *testing.T) {
	g := square()
	ix, err := Build(g, WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ix.Path(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[0] != 0 || p[2] != 2 {
		t.Fatalf("path = %v", p)
	}
}

func TestPublicOrderingOptions(t *testing.T) {
	g := square()
	for _, o := range []Ordering{OrderDegree, OrderRandom, OrderCloseness} {
		ix, err := Build(g, WithOrdering(o))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Distance(0, 2) != 2 {
			t.Fatalf("ordering %v gives wrong distance", o)
		}
	}
}

func TestPublicCustomOrder(t *testing.T) {
	g := square()
	ix, err := Build(g, WithCustomOrder([]int32{3, 2, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Distance(1, 3) != 2 {
		t.Fatal("custom order gives wrong distance")
	}
}

func TestPublicLoadGraphText(t *testing.T) {
	g, err := LoadGraph(strings.NewReader("# demo\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("loaded n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(1) != 2 || len(g.Neighbors(1)) != 2 {
		t.Fatal("accessors wrong")
	}
}

func TestPublicSaveLoadAndDisk(t *testing.T) {
	g := square()
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.pll")
	if err := WriteFlatFile(path, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Distance(1, 3) != 2 {
		t.Fatal("loaded index wrong")
	}
	fi, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fi.Close()
	if d := fi.Distance(1, 3); d != 2 {
		t.Fatalf("mapped distance = %d", d)
	}
}

func TestPublicStats(t *testing.T) {
	g := square()
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.NumVertices != 4 || st.AvgLabelSize <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublicValidate(t *testing.T) {
	g := square()
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(ix, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := Validate(ix, 4); err == nil {
		t.Fatal("expected range error")
	}
	if err := Validate(ix, -1); err == nil {
		t.Fatal("expected range error for negative")
	}
}

func TestPublicWeighted(t *testing.T) {
	g, err := NewWeightedGraph(3, []WeightedEdge{
		{U: 0, V: 1, Weight: 4},
		{U: 1, V: 2, Weight: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildWeighted(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Distance(0, 2); d != 10 {
		t.Fatalf("weighted distance = %d, want 10", d)
	}
	if ix.NumVertices() != 3 || ix.Stats().AvgLabelSize <= 0 {
		t.Fatal("weighted accessors wrong")
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatal("weighted graph accessors wrong")
	}
}

func TestPublicWeightedLoad(t *testing.T) {
	g, err := LoadWeightedGraph(strings.NewReader("0 1 5\n1 2 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildWeighted(g)
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Distance(0, 2); d != 12 {
		t.Fatalf("weighted distance = %d, want 12", d)
	}
}

func TestPublicDirected(t *testing.T) {
	g, err := NewDigraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildDirected(g)
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Distance(0, 2); d != 2 {
		t.Fatalf("directed distance = %d, want 2", d)
	}
	if d := ix.Distance(2, 0); d != Unreachable {
		t.Fatalf("reverse distance = %d, want Unreachable", d)
	}
	if ix.NumVertices() != 3 || ix.Stats().AvgLabelSize <= 0 {
		t.Fatal("directed accessors wrong")
	}
	if g.NumVertices() != 3 || g.NumArcs() != 2 {
		t.Fatal("digraph accessors wrong")
	}
}

func TestPublicDirectedLoad(t *testing.T) {
	g, err := LoadDigraph(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() != 2 {
		t.Fatal("arcs wrong")
	}
}

func TestPublicErrors(t *testing.T) {
	if _, err := NewGraph(1, []Edge{{U: 0, V: 5}}); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := LoadGraph(strings.NewReader("bogus line\n")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected missing-file error")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected missing-file error")
	}
}
