package pll

import (
	"testing"
)

func TestPublicWorkers(t *testing.T) {
	g := square()
	ix, err := Build(g, WithWorkers(4), WithBitParallel(2))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Distance(0, 2) != 2 {
		t.Fatal("parallel build wrong")
	}
}

func TestPublicDynamic(t *testing.T) {
	g, err := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	di, err := BuildDynamic(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if di.Distance(0, 3) != Unreachable {
		t.Fatal("pre-insert distance wrong")
	}
	if _, err := di.InsertEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if d := di.Distance(0, 3); d != 3 {
		t.Fatalf("post-insert distance = %d, want 3", d)
	}
	if di.NumVertices() != 4 || di.Stats().AvgLabelSize <= 0 {
		t.Fatal("dynamic accessors wrong")
	}
}

func TestPublicGraphHelpers(t *testing.T) {
	g := square()
	if len(g.Edges()) != 4 {
		t.Fatal("Edges() wrong")
	}
	_, count := g.Components()
	if count != 1 {
		t.Fatalf("components = %d, want 1", count)
	}
}
