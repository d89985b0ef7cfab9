package core

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/order"
	"pll/internal/rng"
)

// buildOrFail builds an index with the given options and fails the test
// on error.
func buildOrFail(t *testing.T, g *graph.Graph, opt Options) *Index {
	t.Helper()
	ix, err := Build(g, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

// assertMatchesBFS checks the index against ground-truth BFS distances
// for numPairs sampled pairs plus every pair involving vertex 0.
func assertMatchesBFS(t *testing.T, g *graph.Graph, ix *Index, numPairs int, seed uint64) {
	t.Helper()
	n := g.NumVertices()
	if n == 0 {
		return
	}
	for _, p := range randPairs(n, numPairs, seed) {
		want := bfs.Distance(g, p[0], p[1])
		got := ix.Query(p[0], p[1])
		wantInt := int(want)
		if want == bfs.Unreachable {
			wantInt = Unreachable
		}
		if got != wantInt {
			t.Fatalf("Query(%d,%d) = %d, want %d", p[0], p[1], got, wantInt)
		}
	}
	truth := bfs.AllDistances(g, 0)
	for v := 0; v < n; v++ {
		want := int(truth[v])
		if truth[v] == bfs.Unreachable {
			want = Unreachable
		}
		if got := ix.Query(0, int32(v)); got != want {
			t.Fatalf("Query(0,%d) = %d, want %d", v, got, want)
		}
	}
}

// randPairs samples k vertex pairs uniformly with a deterministic seed.
func randPairs(n int, k int, seed uint64) [][2]int32 {
	r := rng.New(seed)
	pairs := make([][2]int32, k)
	for i := range pairs {
		pairs[i] = [2]int32{r.Int31n(int32(n)), r.Int31n(int32(n))}
	}
	return pairs
}

func randomGraph(seed uint64, maxN int) *graph.Graph {
	r := rng.New(seed)
	n := r.Intn(maxN) + 2
	m := r.Intn(3 * n)
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: r.Int31n(int32(n)), V: r.Int31n(int32(n))})
	}
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestQueryOnPath(t *testing.T) {
	g := gen.Path(20)
	ix := buildOrFail(t, g, Options{})
	for s := int32(0); s < 20; s++ {
		for u := int32(0); u < 20; u++ {
			want := int(abs32(s - u))
			if got := ix.Query(s, u); got != want {
				t.Fatalf("Query(%d,%d) = %d, want %d", s, u, got, want)
			}
		}
	}
}

func TestQueryOnStar(t *testing.T) {
	g := gen.Star(30)
	ix := buildOrFail(t, g, Options{})
	if d := ix.Query(1, 2); d != 2 {
		t.Fatalf("leaf-leaf distance = %d, want 2", d)
	}
	if d := ix.Query(0, 5); d != 1 {
		t.Fatalf("center-leaf distance = %d, want 1", d)
	}
	// A star indexed degree-first stores tiny labels: the hub covers all.
	st := ix.ComputeStats()
	if st.AvgLabelSize > 2.1 {
		t.Fatalf("star average label size %.2f, want <= ~2", st.AvgLabelSize)
	}
}

func TestQueryOnCycle(t *testing.T) {
	g := gen.Cycle(17)
	ix := buildOrFail(t, g, Options{})
	for s := int32(0); s < 17; s++ {
		for u := int32(0); u < 17; u++ {
			diff := int(abs32(s - u))
			want := diff
			if 17-diff < diff {
				want = 17 - diff
			}
			if got := ix.Query(s, u); got != want {
				t.Fatalf("Query(%d,%d) = %d, want %d", s, u, got, want)
			}
		}
	}
}

func TestQueryOnGrid(t *testing.T) {
	g := gen.Grid(7, 9)
	ix := buildOrFail(t, g, Options{})
	assertMatchesBFS(t, g, ix, 200, 1)
}

func TestQueryDisconnected(t *testing.T) {
	g, err := graph.NewGraph(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ix := buildOrFail(t, g, Options{})
	if d := ix.Query(0, 3); d != Unreachable {
		t.Fatalf("cross-component Query = %d, want Unreachable", d)
	}
	if d := ix.Query(5, 0); d != Unreachable {
		t.Fatalf("isolated vertex Query = %d, want Unreachable", d)
	}
	if d := ix.Query(5, 5); d != 0 {
		t.Fatalf("self Query on isolated vertex = %d, want 0", d)
	}
}

func TestQuerySelf(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 3)
	ix := buildOrFail(t, g, Options{})
	for v := int32(0); v < 100; v += 7 {
		if d := ix.Query(v, v); d != 0 {
			t.Fatalf("Query(%d,%d) = %d, want 0", v, v, d)
		}
	}
}

func TestRandomGraphsMatchBFSNoBP(t *testing.T) {
	check := func(seed uint64) bool {
		g := randomGraph(seed, 60)
		ix, err := Build(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		n := int32(g.NumVertices())
		r := rng.New(seed ^ 0xfeed)
		for i := 0; i < 30; i++ {
			s, u := r.Int31n(n), r.Int31n(n)
			want := bfs.Distance(g, s, u)
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
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGraphsMatchBFSWithBP(t *testing.T) {
	check := func(seed uint64, bpSmall uint8) bool {
		g := randomGraph(seed, 60)
		numBP := int(bpSmall % 8)
		ix, err := Build(g, Options{Seed: seed, NumBitParallel: numBP})
		if err != nil {
			return false
		}
		n := int32(g.NumVertices())
		r := rng.New(seed ^ 0xbeef)
		for i := 0; i < 30; i++ {
			s, u := r.Int31n(n), r.Int31n(n)
			want := bfs.Distance(g, s, u)
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
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBPOnlyCoversEverything(t *testing.T) {
	// With enough BP roots every vertex is consumed by the BP phase, and
	// queries must still be exact.
	g := gen.BarabasiAlbert(120, 3, 5)
	ix := buildOrFail(t, g, Options{NumBitParallel: 120})
	assertMatchesBFS(t, g, ix, 300, 7)
	if ix.NumBitParallelRoots() == 0 {
		t.Fatal("expected at least one BP root")
	}
}

func TestAllOrderingStrategiesExact(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 11)
	for _, s := range []order.Strategy{order.Degree, order.Random, order.Closeness} {
		ix := buildOrFail(t, g, Options{Ordering: s, Seed: 2})
		assertMatchesBFS(t, g, ix, 150, uint64(s)+9)
	}
}

func TestDegreeOrderingBeatsRandom(t *testing.T) {
	// Table 5's headline: Random labels are far larger than Degree labels.
	g := gen.BarabasiAlbert(400, 3, 21)
	deg := buildOrFail(t, g, Options{Ordering: order.Degree, Seed: 1})
	rnd := buildOrFail(t, g, Options{Ordering: order.Random, Seed: 1})
	ds := deg.ComputeStats()
	rs := rnd.ComputeStats()
	if rs.AvgLabelSize < 1.5*ds.AvgLabelSize {
		t.Fatalf("Random avg label %.1f should far exceed Degree %.1f",
			rs.AvgLabelSize, ds.AvgLabelSize)
	}
}

func TestCustomOrder(t *testing.T) {
	g := gen.Path(10)
	perm := make([]int32, 10)
	for i := range perm {
		perm[i] = int32(9 - i)
	}
	ix := buildOrFail(t, g, Options{CustomOrder: perm})
	assertMatchesBFS(t, g, ix, 50, 3)
}

func TestCustomOrderValidation(t *testing.T) {
	g := gen.Path(5)
	if _, err := Build(g, Options{CustomOrder: []int32{0, 1}}); err == nil {
		t.Fatal("expected error for short CustomOrder")
	}
	if _, err := Build(g, Options{CustomOrder: []int32{0, 0, 1, 2, 3}}); err == nil {
		t.Fatal("expected error for duplicate CustomOrder")
	}
}

func TestNegativeBPRejected(t *testing.T) {
	if _, err := Build(gen.Path(3), Options{NumBitParallel: -1}); err == nil {
		t.Fatal("expected error for negative NumBitParallel")
	}
}

func TestDiameterTooLarge(t *testing.T) {
	// Every root of a 600-path has eccentricity >= 300 > 254, so both
	// construction phases must report the 8-bit overflow.
	g := gen.Path(600)
	_, err := Build(g, Options{})
	if !errors.Is(err, ErrDiameterTooLarge) {
		t.Fatalf("err = %v, want ErrDiameterTooLarge", err)
	}
	_, err = Build(g, Options{NumBitParallel: 4})
	if !errors.Is(err, ErrDiameterTooLarge) {
		t.Fatalf("BP err = %v, want ErrDiameterTooLarge", err)
	}
}

func TestLongPathWithinPerBFSBudget(t *testing.T) {
	// A 300-path has diameter 299 > 254, but a mid-path root keeps every
	// individual BFS within the 8-bit budget; queries sum two label
	// distances as ints, so even d=299 is answered exactly.
	g := gen.Path(300)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Skipf("ordering picked an off-center root: %v", err)
	}
	if d := ix.Query(0, 299); d != 299 {
		t.Fatalf("Query(0,299) = %d, want 299", d)
	}
	assertMatchesBFS(t, g, ix, 100, 3)
}

func TestMinimalityTheorem42(t *testing.T) {
	// Theorem 4.2: every label entry is necessary — removing (w, δ) from
	// L(v) makes the query between v and w incorrect. Verified
	// exhaustively on small random graphs without bit-parallel labels.
	check := func(seed uint64) bool {
		g := randomGraph(seed, 25)
		ix, err := Build(g, Options{Seed: seed})
		if err != nil {
			return false
		}
		n := g.NumVertices()
		for v := int32(0); int(v) < n; v++ {
			hubs, _ := ix.Label(v)
			for _, w := range hubs {
				if w == v {
					continue // the self entry answers (v,v); removing it breaks d(v,v) coverage of other pairs
				}
				d := ix.Query(v, w)
				// Remove the entry and re-answer via remaining labels.
				if queryWithout(ix, v, w) <= d {
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

// queryWithout answers Query(v, w) ignoring the hub-w entry of L(v)
// (simulating its removal). Both labels may still share other hubs.
func queryWithout(ix *Index, v, w int32) int {
	rv, rw := ix.rank[v], ix.rank[w]
	best := int(InfDist) + int(InfDist)
	l := ix.out
	i, j := l.off[rv], l.off[rw]
	for {
		vs, vt := l.vertex[i], l.vertex[j]
		switch {
		case vs == vt:
			if int(vs) == ix.n {
				return best
			}
			if vs != rw { // skip the removed entry (hub w inside L(v))
				if d := int(l.dist[i]) + int(l.dist[j]); d < best {
					best = d
				}
			}
			i++
			j++
		case vs < vt:
			i++
		default:
			j++
		}
	}
}

func TestLabelAccessors(t *testing.T) {
	g := gen.Path(6)
	ix := buildOrFail(t, g, Options{})
	total := 0
	for v := int32(0); v < 6; v++ {
		hubs, dists := ix.Label(v)
		if len(hubs) != len(dists) {
			t.Fatal("hub/dist length mismatch")
		}
		if len(hubs) != ix.LabelSize(v) {
			t.Fatalf("LabelSize(%d)=%d but Label returned %d entries", v, ix.LabelSize(v), len(hubs))
		}
		total += len(hubs)
		for i, h := range hubs {
			want := bfs.Distance(g, v, h)
			if int(dists[i]) != int(want) {
				t.Fatalf("label of %d claims d(%d,%d)=%d, truth %d", v, v, h, dists[i], want)
			}
		}
	}
	st := ix.ComputeStats()
	if st.TotalLabelEntries != int64(total) {
		t.Fatalf("stats total %d != summed %d", st.TotalLabelEntries, total)
	}
}

func TestComputeStats(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 13)
	ix := buildOrFail(t, g, Options{NumBitParallel: 2})
	st := ix.ComputeStats()
	if st.NumVertices != 200 || st.NumBitParallel != 2 {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.AvgLabelSize <= 0 || st.MaxLabelSize < int(st.AvgLabelSize) {
		t.Fatalf("label size stats inconsistent: %+v", st)
	}
	if st.IndexBytes <= 0 || st.BitParallelBytes != int64(2*200*(1+8+8)) {
		t.Fatalf("byte accounting wrong: %+v", st)
	}
	q := st.LabelSizeQuantiles
	if q[0] > q[1] || q[1] > q[2] || q[2] > q[3] || q[3] > q[4] {
		t.Fatalf("quantiles not monotone: %v", q)
	}
	dist := ix.LabelSizeDistribution()
	if len(dist) != 200 {
		t.Fatal("distribution length wrong")
	}
	for i := 1; i < len(dist); i++ {
		if dist[i-1] > dist[i] {
			t.Fatal("distribution not sorted")
		}
	}
}

func TestBuildStatsCollected(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 17)
	var bs BuildStats
	ix := buildOrFail(t, g, Options{NumBitParallel: 2, CollectStats: &bs})
	if len(bs.LabelsPerBFS) == 0 || len(bs.LabelsPerBFS) != len(bs.RootRank) ||
		len(bs.LabelsPerBFS) != len(bs.IsBitParallel) || len(bs.LabelsPerBFS) != len(bs.VisitedPerBFS) {
		t.Fatalf("stats arrays inconsistent: %d/%d/%d/%d",
			len(bs.LabelsPerBFS), len(bs.RootRank), len(bs.IsBitParallel), len(bs.VisitedPerBFS))
	}
	if !bs.IsBitParallel[0] || !bs.IsBitParallel[1] || bs.IsBitParallel[2] {
		t.Fatal("first two roots should be bit-parallel")
	}
	// Normal label totals must agree with the index.
	var sum int64
	for i, c := range bs.LabelsPerBFS {
		if !bs.IsBitParallel[i] {
			sum += c
		}
	}
	if sum != ix.ComputeStats().TotalLabelEntries {
		t.Fatalf("per-BFS sum %d != total entries %d", sum, ix.ComputeStats().TotalLabelEntries)
	}
	// Figure 3a's effect: the first pruned BFS labels far more vertices
	// than the last one.
	first, last := int64(-1), int64(-1)
	for i, c := range bs.LabelsPerBFS {
		if bs.IsBitParallel[i] {
			continue
		}
		if first == -1 {
			first = c
		}
		last = c
	}
	if first <= last {
		t.Fatalf("pruning ineffective: first BFS labeled %d, last %d", first, last)
	}
}

func TestPruningShrinksSearchVsNaive(t *testing.T) {
	// The whole point of the paper: total labels with pruning must be far
	// below the n^2/2-ish entries the naive method stores.
	g := gen.BarabasiAlbert(500, 3, 23)
	ix := buildOrFail(t, g, Options{})
	total := ix.ComputeStats().TotalLabelEntries
	naive := int64(500) * 500 / 2
	if total*10 > naive {
		t.Fatalf("pruned index has %d entries; naive would be ~%d — pruning too weak", total, naive)
	}
}

func TestQueryPath(t *testing.T) {
	check := func(seed uint64) bool {
		g := randomGraph(seed, 40)
		ix, err := Build(g, Options{StorePaths: true, Seed: seed})
		if err != nil {
			return false
		}
		n := int32(g.NumVertices())
		r := rng.New(seed + 5)
		for i := 0; i < 15; i++ {
			s, u := r.Int31n(n), r.Int31n(n)
			want := bfs.Distance(g, s, u)
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
				if !g.HasEdge(p[j-1], p[j]) {
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

func TestQueryPathSelf(t *testing.T) {
	g := gen.Path(5)
	ix := buildOrFail(t, g, Options{StorePaths: true})
	p, _, err := ix.Path(2, 2)
	if err != nil || len(p) != 1 || p[0] != 2 {
		t.Fatalf("self path = %v, %v", p, err)
	}
}

func TestQueryPathRequiresStorePaths(t *testing.T) {
	g := gen.Path(5)
	ix := buildOrFail(t, g, Options{})
	if _, _, err := ix.Path(0, 4); err == nil {
		t.Fatal("expected error without StorePaths")
	}
}

func TestStorePathsDisablesBP(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 3)
	ix := buildOrFail(t, g, Options{StorePaths: true, NumBitParallel: 16})
	if ix.NumBitParallelRoots() != 0 {
		t.Fatal("StorePaths must disable bit-parallel labeling")
	}
	if !ix.HasPaths() {
		t.Fatal("HasPaths should be true")
	}
}

func TestMetricPropertiesOfOracle(t *testing.T) {
	// The oracle must behave like the graph metric: symmetric, zero only
	// on the diagonal (for connected distinct pairs), triangle inequality.
	g := gen.BarabasiAlbert(150, 3, 31)
	ix := buildOrFail(t, g, Options{NumBitParallel: 4})
	r := rng.New(77)
	for i := 0; i < 300; i++ {
		a, b, c := r.Int31n(150), r.Int31n(150), r.Int31n(150)
		dab, dba := ix.Query(a, b), ix.Query(b, a)
		if dab != dba {
			t.Fatalf("asymmetric: d(%d,%d)=%d, d(%d,%d)=%d", a, b, dab, b, a, dba)
		}
		dbc, dac := ix.Query(b, c), ix.Query(a, c)
		if dab >= 0 && dbc >= 0 && dac >= 0 && dac > dab+dbc {
			t.Fatalf("triangle violated: d(%d,%d)=%d > %d+%d", a, c, dac, dab, dbc)
		}
		if a != b && dab == 0 {
			t.Fatalf("zero distance for distinct pair (%d,%d)", a, b)
		}
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		g, err := graph.NewGraph(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		ix := buildOrFail(t, g, Options{NumBitParallel: 4})
		if n >= 1 {
			if d := ix.Query(0, 0); d != 0 {
				t.Fatalf("n=%d: self distance %d", n, d)
			}
		}
		if n == 2 {
			if d := ix.Query(0, 1); d != Unreachable {
				t.Fatalf("edgeless pair distance %d", d)
			}
		}
	}
}

func TestDeterministicBuilds(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 41)
	a := buildOrFail(t, g, Options{Seed: 5, NumBitParallel: 4})
	b := buildOrFail(t, g, Options{Seed: 5, NumBitParallel: 4})
	if a.ComputeStats() != b.ComputeStats() {
		t.Fatal("same seed produced different indexes")
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func BenchmarkPrunedBFSConstruction(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructionWithBP(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Options{NumBitParallel: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 5, 1)
	ix, err := Build(g, Options{NumBitParallel: 8})
	if err != nil {
		b.Fatal(err)
	}
	pairs := randPairs(20000, 1024, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		ix.Query(p[0], p[1])
	}
}

func TestConcurrentQueriesAreSafe(t *testing.T) {
	// The index is immutable after Build; concurrent readers must agree
	// with sequential answers. Run with -race to verify.
	g := gen.BarabasiAlbert(300, 3, 7)
	ix := buildOrFail(t, g, Options{NumBitParallel: 4})
	pairs := randPairs(300, 256, 3)
	want := make([]int, len(pairs))
	for i, p := range pairs {
		want[i] = ix.Query(p[0], p[1])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range pairs {
				if got := ix.Query(p[0], p[1]); got != want[i] {
					errs <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

var errMismatch = errors.New("concurrent query mismatch")
