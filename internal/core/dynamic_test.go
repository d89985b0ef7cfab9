package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
)

// assertDynamicExact verifies all pairs of a small graph against BFS.
func assertDynamicExact(t *testing.T, g *graph.Graph, di *DynamicIndex) {
	t.Helper()
	n := g.NumVertices()
	for s := int32(0); int(s) < n; s++ {
		truth := bfs.AllDistances(g, s)
		for u := int32(0); int(u) < n; u++ {
			want := int(truth[u])
			if truth[u] == bfs.Unreachable {
				want = Unreachable
			}
			if got := di.Query(s, u); got != want {
				t.Fatalf("Query(%d,%d) = %d, want %d", s, u, got, want)
			}
		}
	}
}

func TestDynamicMatchesStaticInitially(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 5)
	di, err := BuildDynamic(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildOrFail(t, g, Options{Seed: 5})
	for _, p := range randPairs(150, 300, 7) {
		if di.Query(p[0], p[1]) != ix.Query(p[0], p[1]) {
			t.Fatalf("dynamic/static mismatch at (%d,%d)", p[0], p[1])
		}
	}
}

func TestDynamicInsertBridgesComponents(t *testing.T) {
	// Two disjoint paths; inserting a bridge must make cross queries
	// exact.
	g, err := graph.NewGraph(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	di, err := BuildDynamic(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := di.Query(0, 5); d != Unreachable {
		t.Fatalf("pre-insert Query(0,5) = %d", d)
	}
	if _, err := di.InsertEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	after, err := graph.NewGraph(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	assertDynamicExact(t, after, di)
}

func TestDynamicInsertShortcut(t *testing.T) {
	// A long cycle; inserting a chord shortens many pairs at once.
	g := gen.Cycle(20)
	di, err := BuildDynamic(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	edges = append(edges, graph.Edge{U: 0, V: 10})
	after, err := graph.NewGraph(20, edges)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.InsertEdge(0, 10); err != nil {
		t.Fatal(err)
	}
	assertDynamicExact(t, after, di)
}

func TestDynamicInsertExistingEdgeNoop(t *testing.T) {
	g := gen.Path(5)
	di, err := BuildDynamic(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := di.InsertEdge(0, 1)
	if err != nil || n != 0 {
		t.Fatalf("existing edge: updated=%d err=%v", n, err)
	}
	n, err = di.InsertEdge(2, 2)
	if err != nil || n != 0 {
		t.Fatalf("self loop: updated=%d err=%v", n, err)
	}
	if _, err := di.InsertEdge(0, 99); err == nil {
		t.Fatal("expected range error")
	}
}

// TestDynamicFailedInsertChangesNothing joins two 200-vertex paths into
// one of diameter 399. Under the default order a search resumed by the
// insert overruns the 8-bit distance budget after it has already
// changed labels. The insert must fail having changed nothing: same
// stats, same labels, every cross pair still unreachable, and no edge
// left behind, so a retry fails the same way instead of passing as a
// duplicate. The valid inserts before and after it must keep answering
// like BFS.
func TestDynamicFailedInsertChangesNothing(t *testing.T) {
	const half = 200
	var edges []graph.Edge
	for v := int32(0); v < 2*half-1; v++ {
		if v != half-1 {
			edges = append(edges, graph.Edge{U: v, V: v + 1})
		}
	}
	g, err := graph.NewGraph(2*half, edges)
	if err != nil {
		t.Fatal(err)
	}
	di, err := BuildDynamic(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.InsertEdge(300, 350); err != nil {
		t.Fatal(err)
	}
	edges = append(edges, graph.Edge{U: 300, V: 350})
	stats, digest := di.ComputeStats(), familyDigest(di.Freeze().out)
	for try := 0; try < 2; try++ {
		if n, err := di.InsertEdge(half-1, half); n != 0 || !errors.Is(err, ErrDiameterTooLarge) {
			t.Fatalf("try %d: InsertEdge(%d,%d) = %d, %v; want 0, ErrDiameterTooLarge", try, half-1, half, n, err)
		}
		if got := di.ComputeStats(); got != stats {
			t.Fatalf("stats after the failed insert:\n%+v\nwant\n%+v", got, stats)
		}
		if got := familyDigest(di.Freeze().out); got != digest {
			t.Fatalf("labels changed by the failed insert: digest %s, want %s", got, digest)
		}
	}
	for s := int32(0); s < half; s++ {
		for u := int32(half); u < 2*half; u++ {
			if d := di.Query(s, u); d != Unreachable {
				t.Fatalf("Query(%d,%d) = %d after the failed insert, want Unreachable", s, u, d)
			}
		}
	}
	if _, err := di.InsertEdge(0, 100); err != nil {
		t.Fatal(err)
	}
	after, err := graph.NewGraph(2*half, append(edges, graph.Edge{U: 0, V: 100}))
	if err != nil {
		t.Fatal(err)
	}
	assertDynamicExact(t, after, di)
}

// TestDynamicInsertEdgesAllOrNothing inserts batches into the two-path
// graph of TestDynamicFailedInsertChangesNothing. A batch whose last
// edge overruns the distance budget, after edges that alone succeed
// (one of them twice), and a batch with an edge out of range must both
// leave the stats and labels exactly as before, with every edge of the
// batch gone. A later valid batch must answer like BFS.
func TestDynamicInsertEdgesAllOrNothing(t *testing.T) {
	const half = 200
	var edges []graph.Edge
	for v := int32(0); v < 2*half-1; v++ {
		if v != half-1 {
			edges = append(edges, graph.Edge{U: v, V: v + 1})
		}
	}
	g, err := graph.NewGraph(2*half, edges)
	if err != nil {
		t.Fatal(err)
	}
	di, err := BuildDynamic(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, digest := di.ComputeStats(), familyDigest(di.Freeze().out)
	for _, batch := range [][]graph.Edge{
		{{U: 0, V: 100}, {U: 300, V: 350}, {U: 100, V: 0}, {U: 7, V: 7}, {U: half - 1, V: half}},
		{{U: 0, V: 100}, {U: 300, V: 2 * half}},
	} {
		if n, err := di.InsertEdges(batch); n != 0 || err == nil {
			t.Fatalf("InsertEdges(%v) = %d, %v; want 0 and an error", batch, n, err)
		}
		if got := di.ComputeStats(); got != stats {
			t.Fatalf("stats after the failed batch %v:\n%+v\nwant\n%+v", batch, got, stats)
		}
		if got := familyDigest(di.Freeze().out); got != digest {
			t.Fatalf("labels changed by the failed batch %v: digest %s, want %s", batch, got, digest)
		}
		if d := di.Query(0, 100); d != 100 {
			t.Fatalf("Query(0,100) = %d after the failed batch %v, want 100", d, batch)
		}
	}
	valid := []graph.Edge{{U: 0, V: 100}, {U: 300, V: 350}, {U: 100, V: 0}, {U: 7, V: 7}, {U: 20, V: 180}}
	if n, err := di.InsertEdges(valid); n == 0 || err != nil {
		t.Fatalf("InsertEdges(%v) = %d, %v; want label changes and no error", valid, n, err)
	}
	after, err := graph.NewGraph(2*half, append(edges, valid...))
	if err != nil {
		t.Fatal(err)
	}
	assertDynamicExact(t, after, di)
}

// TestPublishedRowsNeverWritten drives growing.add the way resumed
// searches do — appends, entries inserted in place and entries lowered,
// several per row — on a copy-on-write family. Every row a published
// view holds must stay as it was. A publish must show exactly what the
// same adds give without copy-on-write, copying only the chunks of
// changed rows, and a discard must restore the writer's rows to the
// view's exactly.
func TestPublishedRowsNeverWritten(t *testing.T) {
	r := rng.New(5)
	const n = 2*chunkRows + 5 // the last chunk is partial
	clone := func(vw *labelView[uint8]) ([][]int32, [][]uint8) {
		v, d := vw.rows(n)
		cv, cd := make([][]int32, n), make([][]uint8, n)
		for u := range v {
			cv[u], cd[u] = slices.Clone(v[u]), slices.Clone(d[u])
		}
		return cv, cd
	}
	sameRows := func(vw *labelView[uint8], wantV [][]int32, wantD [][]uint8) bool {
		for u := range wantV {
			v, d := vw.row(int32(u))
			if !slices.Equal(v, wantV[u]) || !slices.Equal(d, wantD[u]) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 50; trial++ {
		g, model := newGrowing[uint8](n, false), newGrowing[uint8](n, false)
		for u := int32(0); u < n; u++ {
			for hub := int32(0); hub < 40; hub += 1 + r.Int31n(4) {
				d := uint8(10 + r.Intn(40))
				g.add(u, hub, d, nil)
				model.add(u, hub, d, nil)
			}
		}
		g.own = make([]bool, n)
		vw := viewOf(g.v, g.d)
		for round := 0; round < 3; round++ {
			wantV, wantD := clone(vw)
			for k := 0; k < 12; k++ {
				u, hub, d := r.Int31n(n), r.Int31n(48), uint8(r.Intn(10))
				g.add(u, hub, d, nil)
				model.add(u, hub, d, nil)
			}
			if !sameRows(vw, wantV, wantD) {
				t.Fatalf("trial %d round %d: adds wrote a published row", trial, round)
			}
			if round == 2 && trial%2 == 0 {
				g.discard(vw)
				for u := range wantV {
					if !slices.Equal(g.v[u], wantV[u]) || !slices.Equal(g.d[u], wantD[u]) {
						t.Fatalf("trial %d: row %d after discard = %v %v, want %v %v", trial, u, g.v[u], g.d[u], wantV[u], wantD[u])
					}
				}
				if len(g.touched) != 0 || slices.Contains(g.own, true) {
					t.Fatalf("trial %d: discard left %d rows touched", trial, len(g.touched))
				}
				break
			}
			changed := make(map[int32]bool)
			for _, u := range g.touched {
				changed[u>>chunkShift] = true
			}
			next := g.publish(vw)
			if !sameRows(vw, wantV, wantD) {
				t.Fatalf("trial %d round %d: publish wrote a published row", trial, round)
			}
			if !sameRows(next, model.v, model.d) {
				t.Fatalf("trial %d round %d: published rows differ from the same adds made in place", trial, round)
			}
			for k := range next.chunks {
				if shared := next.chunks[k] == vw.chunks[k]; shared == changed[int32(k)] {
					t.Fatalf("trial %d round %d: chunk %d shared=%v, changed=%v", trial, round, k, shared, changed[int32(k)])
				}
			}
			vw = next
		}
	}
}

func TestDynamicRandomInsertionSequences(t *testing.T) {
	// The heavy validation: start from a random graph, insert random
	// edges one at a time, and after every insertion check all pairs
	// against BFS on the updated graph.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(25) + 5
		m := r.Intn(2 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: r.Int31n(int32(n)), V: r.Int31n(int32(n))})
		}
		g, err := graph.NewGraph(n, edges)
		if err != nil {
			return false
		}
		di, err := BuildDynamic(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		cur := g.Edges()
		for step := 0; step < 8; step++ {
			a, b := r.Int31n(int32(n)), r.Int31n(int32(n))
			if a == b {
				continue
			}
			if _, err := di.InsertEdge(a, b); err != nil {
				return false
			}
			cur = append(cur, graph.Edge{U: a, V: b})
			updated, err := graph.NewGraph(n, cur)
			if err != nil {
				return false
			}
			for s := int32(0); int(s) < n; s++ {
				truth := bfs.AllDistances(updated, s)
				for u := int32(0); int(u) < n; u++ {
					want := int(truth[u])
					if truth[u] == bfs.Unreachable {
						want = Unreachable
					}
					if di.Query(s, u) != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicManyInsertionsOnLargerGraph(t *testing.T) {
	// Spot-check (sampled pairs) on a bigger graph with many insertions.
	g := gen.BarabasiAlbert(400, 2, 9)
	di, err := BuildDynamic(g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	cur := g.Edges()
	for step := 0; step < 60; step++ {
		a, b := r.Int31n(400), r.Int31n(400)
		if a == b {
			continue
		}
		if _, err := di.InsertEdge(a, b); err != nil {
			t.Fatal(err)
		}
		cur = append(cur, graph.Edge{U: a, V: b})
	}
	updated, err := graph.NewGraph(400, cur)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range randPairs(400, 400, 13) {
		want := int(bfs.Distance(updated, p[0], p[1]))
		if got := di.Query(p[0], p[1]); got != want {
			t.Fatalf("Query(%d,%d) = %d, want %d", p[0], p[1], got, want)
		}
	}
}

func TestDynamicRejectsUnsupportedOptions(t *testing.T) {
	g := gen.Path(5)
	if _, err := BuildDynamic(g, Options{NumBitParallel: 4}); err == nil {
		t.Fatal("expected error for bit-parallel dynamic index")
	}
	if _, err := BuildDynamic(g, Options{StorePaths: true}); err == nil {
		t.Fatal("expected error for path-storing dynamic index")
	}
}

func TestDynamicAvgLabelSizeGrowsModestly(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 4)
	di, err := BuildDynamic(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := di.ComputeStats().AvgLabelSize
	r := rng.New(77)
	for i := 0; i < 30; i++ {
		a, b := r.Int31n(300), r.Int31n(300)
		if a != b {
			if _, err := di.InsertEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := di.ComputeStats().AvgLabelSize
	if after < before {
		t.Fatalf("labels shrank: %v -> %v", before, after)
	}
	if after > 3*before+10 {
		t.Fatalf("labels exploded after 30 insertions: %v -> %v", before, after)
	}
}

// BenchmarkDynamicInsertEdge times one InsertEdge of a random edge, with
// its allocations: on a small BA graph, and on perfbench's graph (BA
// n=25,000, m=5, its graph seed), where the per-insert garbage of label
// repair shows as B/op. Inserts accumulate and every one grows the
// labels, so the time per insert grows with -benchtime: compare two
// builds only at the same count (e.g. -benchtime 3000x for both).
func BenchmarkDynamicInsertEdge(b *testing.B) {
	for _, c := range []struct {
		n, m int
		seed uint64
	}{{5000, 4, 1}, {25000, 5, 20130622}} {
		b.Run(fmt.Sprintf("BA-n%d-m%d", c.n, c.m), func(b *testing.B) {
			g := gen.BarabasiAlbert(c.n, c.m, c.seed)
			di, err := BuildDynamic(g, Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, v := r.Int31n(int32(c.n)), r.Int31n(int32(c.n))
				if u == v {
					continue
				}
				if _, err := di.InsertEdge(u, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
