package pll_test

// Integration tests: cross-module flows exercised through the public API
// plus the internal baselines, mirroring how the experiment harness
// composes the pieces.

import (
	"bytes"
	"path/filepath"
	"testing"

	"pll/internal/baseline"
	"pll/internal/bfs"
	"pll/internal/datasets"
	"pll/internal/graph"
	"pll/internal/hhl"
	"pll/internal/order"
	"pll/internal/rng"
	"pll/internal/treedec"
	"pll/pll"
)

// TestFourOraclesAgreeOnDatasetStandIn cross-validates every exact
// oracle in the repository on a generated dataset stand-in.
func TestFourOraclesAgreeOnDatasetStandIn(t *testing.T) {
	rec, err := datasets.ByName("Gnutella")
	if err != nil {
		t.Fatal(err)
	}
	raw := rec.Generate(256, 5)
	g, err := pll.NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.Build(g, pll.WithBitParallel(8), pll.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	hix, err := hhl.Build(raw, order.ByDegree(raw, 5))
	if err != nil {
		t.Fatal(err)
	}
	tix, terr := treedec.Build(raw, treedec.Options{MaxBag: 16, MaxCore: 4000})
	oracle := baseline.NewOracle(raw)

	r := rng.New(9)
	n := int32(raw.NumVertices())
	for i := 0; i < 300; i++ {
		s, u := r.Int31n(n), r.Int31n(n)
		want := oracle.Query(s, u)
		if got := ix.Distance(s, u); got != int64(want) {
			t.Fatalf("PLL disagrees with BFS at (%d,%d): %d vs %d", s, u, got, want)
		}
		if got := hix.Query(s, u); got != want {
			t.Fatalf("HHL disagrees with BFS at (%d,%d): %d vs %d", s, u, got, want)
		}
		if terr == nil {
			got := tix.Query(s, u)
			if (want == baseline.Unreachable) != (got == treedec.Unreachable) ||
				(want != baseline.Unreachable && got != int64(want)) {
				t.Fatalf("treedec disagrees with BFS at (%d,%d): %d vs %d", s, u, got, want)
			}
		}
	}
}

// TestFullPersistencePipeline walks graph -> build -> save -> heap load
// and mmap open, checking agreement at every step.
func TestFullPersistencePipeline(t *testing.T) {
	rec, err := datasets.ByName("Epinions")
	if err != nil {
		t.Fatal(err)
	}
	raw := rec.Generate(512, 3)
	g, err := pll.NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.BuildIndex(g, pll.WithBitParallel(4))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ix.pllbox")
	if err := pll.WriteFlatFile(path, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := pll.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := pll.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	r := rng.New(4)
	n := int32(g.NumVertices())
	for i := 0; i < 200; i++ {
		s, u := r.Int31n(n), r.Int31n(n)
		want := ix.Distance(s, u)
		if loaded.Distance(s, u) != want {
			t.Fatal("heap load mismatch")
		}
		if mapped.Distance(s, u) != want {
			t.Fatal("mmap open mismatch")
		}
	}
}

// TestGraphTextRoundTripThroughAPI writes a generated graph as text and
// reloads it through the public loader.
func TestGraphTextRoundTripThroughAPI(t *testing.T) {
	rec, err := datasets.ByName("Slashdot")
	if err != nil {
		t.Fatal(err)
	}
	raw := rec.Generate(1024, 9)
	g, err := pll.NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("# header comment\n")
	for _, e := range g.Edges() {
		buf.WriteString(itoa(e.U) + " " + itoa(e.V) + "\n")
	}
	g2, err := pll.LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("text round trip: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

// TestDynamicConvergesToStatic inserts edges one by one into a dynamic
// index and checks it matches a fresh static build of the final graph.
func TestDynamicConvergesToStatic(t *testing.T) {
	base, err := pll.NewGraph(120, nil)
	_ = base
	if err != nil {
		t.Fatal(err)
	}
	// Start from a sparse ring, add chords dynamically.
	var ringEdges []pll.Edge
	for i := int32(0); i < 120; i++ {
		ringEdges = append(ringEdges, pll.Edge{U: i, V: (i + 1) % 120})
	}
	g, err := pll.NewGraph(120, ringEdges)
	if err != nil {
		t.Fatal(err)
	}
	di, err := pll.BuildDynamic(g, pll.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	all := append([]pll.Edge(nil), ringEdges...)
	for i := 0; i < 25; i++ {
		a, b := r.Int31n(120), r.Int31n(120)
		if a == b {
			continue
		}
		if _, err := di.InsertEdge(a, b); err != nil {
			t.Fatal(err)
		}
		all = append(all, pll.Edge{U: a, V: b})
	}
	final, err := pll.NewGraph(120, all)
	if err != nil {
		t.Fatal(err)
	}
	static, err := pll.Build(final, pll.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for s := int32(0); s < 120; s += 3 {
		for u := int32(0); u < 120; u += 5 {
			if di.Distance(s, u) != static.Distance(s, u) {
				t.Fatalf("dynamic/static mismatch at (%d,%d): %d vs %d",
					s, u, di.Distance(s, u), static.Distance(s, u))
			}
		}
	}
}

// TestWeightedAgainstDijkstraOnStandIn cross-checks the weighted public
// oracle on a weighted dataset stand-in.
func TestWeightedAgainstDijkstraOnStandIn(t *testing.T) {
	rec, err := datasets.ByName("Gnutella")
	if err != nil {
		t.Fatal(err)
	}
	raw := rec.Generate(1024, 11)
	var wedges []pll.WeightedEdge
	r := rng.New(6)
	for _, e := range raw.Edges() {
		wedges = append(wedges, pll.WeightedEdge{U: e.U, V: e.V, Weight: uint32(r.Intn(9) + 1)})
	}
	wg, err := pll.NewWeightedGraph(raw.NumVertices(), wedges)
	if err != nil {
		t.Fatal(err)
	}
	wix, err := pll.BuildWeighted(wg)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the same weighted graph for the Dijkstra ground truth.
	truthG, err := rebuildWeighted(raw.NumVertices(), wedges)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(raw.NumVertices())
	for i := 0; i < 120; i++ {
		s, u := r.Int31n(n), r.Int31n(n)
		want := bfs.DijkstraDistance(truthG, s, u)
		got := wix.Distance(s, u)
		if want == bfs.InfWeight {
			if got != pll.Unreachable {
				t.Fatalf("reachability mismatch at (%d,%d)", s, u)
			}
		} else if got != int64(want) {
			t.Fatalf("weighted mismatch at (%d,%d): %d vs %d", s, u, got, want)
		}
	}
}

// rebuildWeighted constructs the internal weighted graph for ground
// truth (pll.WeightedEdge aliases graph.WeightedEdge).
func rebuildWeighted(n int, edges []pll.WeightedEdge) (*graph.Weighted, error) {
	return graph.NewWeighted(n, edges)
}

func itoa(v int32) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
