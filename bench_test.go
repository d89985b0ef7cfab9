// Package benches holds the top-level benchmark harness: one benchmark
// family per table and figure of the paper's evaluation (§7), each
// delegating to the same internal/exp drivers that cmd/experiments uses.
// Run everything with:
//
//	go test -bench=. -benchmem .
//
// Dataset stand-ins are generated once per size and cached; sizes are
// laptop-scale (see EXPERIMENTS.md for reference output, the meaning of
// benchScaleDiv, and how to run the evaluation at larger scales via
// cmd/experiments -scalediv).
package benches

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"pll/internal/baseline"
	"pll/internal/core"
	"pll/internal/datasets"
	"pll/internal/exp"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/hhl"
	"pll/internal/order"
	"pll/internal/rng"
	"pll/internal/stats"
	"pll/internal/treedec"
	"pll/pll"
)

// benchScaleDiv keeps per-iteration work in the tens of milliseconds.
const benchScaleDiv = 256

var (
	graphCacheMu sync.Mutex
	graphCache   = map[string]*graph.Graph{}
)

func standIn(b *testing.B, name string) *graph.Graph {
	b.Helper()
	graphCacheMu.Lock()
	defer graphCacheMu.Unlock()
	if g, ok := graphCache[name]; ok {
		return g
	}
	rec, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g := rec.Generate(benchScaleDiv, 7)
	graphCache[name] = g
	return g
}

func benchPairs(n int, k int) [][2]int32 {
	r := rng.New(99)
	pairs := make([][2]int32, k)
	for i := range pairs {
		pairs[i] = [2]int32{r.Int31n(int32(n)), r.Int31n(int32(n))}
	}
	return pairs
}

// ---- Table 3: indexing time and query time per method per dataset ----

func benchTable3Construct(b *testing.B, name string, bp int) {
	g := standIn(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(g, core.Options{Ordering: order.Degree, Seed: 7, NumBitParallel: bp}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_PLL_Construct_Gnutella(b *testing.B)  { benchTable3Construct(b, "Gnutella", 16) }
func BenchmarkTable3_PLL_Construct_Epinions(b *testing.B)  { benchTable3Construct(b, "Epinions", 16) }
func BenchmarkTable3_PLL_Construct_Slashdot(b *testing.B)  { benchTable3Construct(b, "Slashdot", 16) }
func BenchmarkTable3_PLL_Construct_NotreDame(b *testing.B) { benchTable3Construct(b, "NotreDame", 16) }
func BenchmarkTable3_PLL_Construct_WikiTalk(b *testing.B)  { benchTable3Construct(b, "WikiTalk", 16) }
func BenchmarkTable3_PLL_Construct_Skitter(b *testing.B)   { benchTable3Construct(b, "Skitter", 64) }
func BenchmarkTable3_PLL_Construct_Flickr(b *testing.B)    { benchTable3Construct(b, "Flickr", 64) }

func benchTable3Query(b *testing.B, name string, bp int) {
	g := standIn(b, name)
	ix, err := core.Build(g, core.Options{Ordering: order.Degree, Seed: 7, NumBitParallel: bp})
	if err != nil {
		b.Fatal(err)
	}
	pairs := benchPairs(g.NumVertices(), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		ix.Query(p[0], p[1])
	}
}

func BenchmarkTable3_PLL_Query_Gnutella(b *testing.B) { benchTable3Query(b, "Gnutella", 16) }
func BenchmarkTable3_PLL_Query_Epinions(b *testing.B) { benchTable3Query(b, "Epinions", 16) }
func BenchmarkTable3_PLL_Query_Slashdot(b *testing.B) { benchTable3Query(b, "Slashdot", 16) }
func BenchmarkTable3_PLL_Query_WikiTalk(b *testing.B) { benchTable3Query(b, "WikiTalk", 16) }
func BenchmarkTable3_PLL_Query_Skitter(b *testing.B)  { benchTable3Query(b, "Skitter", 64) }

func BenchmarkTable3_HHL_Construct_Gnutella(b *testing.B) {
	g := standIn(b, "Gnutella")
	perm := order.ByDegree(g, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hhl.Build(g, perm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_HHL_Construct_Epinions(b *testing.B) {
	g := standIn(b, "Epinions")
	perm := order.ByDegree(g, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hhl.Build(g, perm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_TD_Construct_Gnutella(b *testing.B) {
	g := standIn(b, "Gnutella")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treedec.Build(g, treedec.Options{MaxBag: 16, MaxCore: 4000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_BFS_Query_Slashdot(b *testing.B) {
	g := standIn(b, "Slashdot")
	oracle := baseline.NewOracle(g)
	pairs := benchPairs(g.NumVertices(), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&255]
		oracle.Query(p[0], p[1])
	}
}

// ---- Table 1 is the summary view of Table 3; bench the driver once ----

func BenchmarkTable1_SummaryDriver(b *testing.B) {
	cfg := exp.Config{ScaleDiv: 1024, Seed: 7, QueryPairs: 512, HHLMaxN: 2000, TDMaxCore: 1000}
	recipes := datasets.Small()[:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3(cfg, recipes)
		if err != nil {
			b.Fatal(err)
		}
		exp.Table1(rows)
	}
}

// ---- Table 5: ordering-strategy ablation ----

func benchTable5(b *testing.B, s order.Strategy) {
	g := standIn(b, "Epinions")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(g, core.Options{Ordering: s, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5_Ordering_Degree(b *testing.B)    { benchTable5(b, order.Degree) }
func BenchmarkTable5_Ordering_Random(b *testing.B)    { benchTable5(b, order.Random) }
func BenchmarkTable5_Ordering_Closeness(b *testing.B) { benchTable5(b, order.Closeness) }

// Betweenness is this repository's ablation beyond the paper's three
// strategies (§4.4 motivates it; Degree/Closeness are its proxies).
func BenchmarkTable5_Ordering_Betweenness(b *testing.B) { benchTable5(b, order.Betweenness) }

// ---- Figure 1: the pruned-BFS walkthrough ----

func BenchmarkFig1_Walkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 2: dataset statistics ----

func BenchmarkFig2_DegreeCCDF(b *testing.B) {
	g := standIn(b, "WikiTalk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.DegreeCCDF(g)
	}
}

func BenchmarkFig2_DistanceDistribution(b *testing.B) {
	g := standIn(b, "WikiTalk")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.DistanceDistribution(g, 2000, uint64(i))
	}
}

// ---- Figure 3: construction traces ----

func BenchmarkFig3_ConstructionTrace_Skitter(b *testing.B) {
	g := standIn(b, "Skitter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bs core.BuildStats
		if _, err := core.Build(g, core.Options{Ordering: order.Degree, Seed: 7, CollectStats: &bs}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 4: pair coverage sweep ----

func BenchmarkFig4_CoverageSweep_Gnutella(b *testing.B) {
	g := standIn(b, "Gnutella")
	perm := order.ByDegree(g, 7)
	lm := baseline.BuildLandmarks(g, perm, 256)
	ps := stats.SamplePairs(g, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range stats.LogSpacedIndexes(257) {
			stats.Coverage(ps, stats.QuerierFunc(func(s, t int32) int {
				return lm.EstimateWithPrefix(s, t, k)
			}))
		}
	}
}

// ---- Figure 5: bit-parallel sweep ----

func benchFig5(b *testing.B, t int) {
	g := standIn(b, "Skitter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(g, core.Options{Ordering: order.Degree, Seed: 7, NumBitParallel: t}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_BitParallel_1(b *testing.B)   { benchFig5(b, 1) }
func BenchmarkFig5_BitParallel_16(b *testing.B)  { benchFig5(b, 16) }
func BenchmarkFig5_BitParallel_64(b *testing.B)  { benchFig5(b, 64) }
func BenchmarkFig5_BitParallel_256(b *testing.B) { benchFig5(b, 256) }

// ---- Ablations beyond the paper's figures (DESIGN.md §7) ----

// Pruning on/off: the naive §4.1 labeling vs pruned labeling.
func BenchmarkAblation_NaiveLabeling(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 7)
	perm := order.ByDegree(g, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.BuildNaive(g, perm)
	}
}

func BenchmarkAblation_PrunedLabeling(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 7)
	perm := order.ByDegree(g, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(g, core.Options{CustomOrder: perm}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Construction scaling: the batch-parallel pruned labeling ----
//
// BenchmarkBuildWorkers{1,2,4,8}_* measure index-construction wall time
// per variant and worker count on one fixed synthetic benchmark graph
// per variant (the index is byte-identical at every worker count, so
// only time changes). EXPERIMENTS.md records a reference scaling table;
// regenerate it with:
//
//	go test -bench 'BenchmarkBuildWorkers' -benchtime 3x .

var (
	buildBenchGraphOnce sync.Once
	buildBenchGraph     *graph.Graph    // undirected + dynamic benchmark graph
	buildBenchDigraph   *graph.Digraph  // directed benchmark graph
	buildBenchWeighted  *graph.Weighted // weighted benchmark graph
)

func buildBenchInputs() {
	buildBenchGraphOnce.Do(func() {
		buildBenchGraph = gen.BarabasiAlbert(20000, 5, 1)
		buildBenchDigraph = gen.RandomDigraph(4000, 20000, 2)
		buildBenchWeighted = gen.RandomWeights(gen.BarabasiAlbert(8000, 4, 3), 1, 16, 4)
	})
}

func benchBuildWorkersUndirected(b *testing.B, workers int) {
	buildBenchInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(buildBenchGraph, core.Options{Seed: 7, NumBitParallel: 16, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBuildWorkersDirected(b *testing.B, workers int) {
	buildBenchInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildDirected(buildBenchDigraph, core.Options{Seed: 7, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBuildWorkersWeighted(b *testing.B, workers int) {
	buildBenchInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildWeighted(buildBenchWeighted, core.Options{Seed: 7, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBuildWorkersDynamic(b *testing.B, workers int) {
	buildBenchInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildDynamic(buildBenchGraph, core.Options{Seed: 7, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildWorkers1_Undirected(b *testing.B) { benchBuildWorkersUndirected(b, 1) }
func BenchmarkBuildWorkers2_Undirected(b *testing.B) { benchBuildWorkersUndirected(b, 2) }
func BenchmarkBuildWorkers4_Undirected(b *testing.B) { benchBuildWorkersUndirected(b, 4) }
func BenchmarkBuildWorkers8_Undirected(b *testing.B) { benchBuildWorkersUndirected(b, 8) }

func BenchmarkBuildWorkers1_Directed(b *testing.B) { benchBuildWorkersDirected(b, 1) }
func BenchmarkBuildWorkers2_Directed(b *testing.B) { benchBuildWorkersDirected(b, 2) }
func BenchmarkBuildWorkers4_Directed(b *testing.B) { benchBuildWorkersDirected(b, 4) }
func BenchmarkBuildWorkers8_Directed(b *testing.B) { benchBuildWorkersDirected(b, 8) }

func BenchmarkBuildWorkers1_Weighted(b *testing.B) { benchBuildWorkersWeighted(b, 1) }
func BenchmarkBuildWorkers2_Weighted(b *testing.B) { benchBuildWorkersWeighted(b, 2) }
func BenchmarkBuildWorkers4_Weighted(b *testing.B) { benchBuildWorkersWeighted(b, 4) }
func BenchmarkBuildWorkers8_Weighted(b *testing.B) { benchBuildWorkersWeighted(b, 8) }

func BenchmarkBuildWorkers1_Dynamic(b *testing.B) { benchBuildWorkersDynamic(b, 1) }
func BenchmarkBuildWorkers2_Dynamic(b *testing.B) { benchBuildWorkersDynamic(b, 2) }
func BenchmarkBuildWorkers4_Dynamic(b *testing.B) { benchBuildWorkersDynamic(b, 4) }
func BenchmarkBuildWorkers8_Dynamic(b *testing.B) { benchBuildWorkersDynamic(b, 8) }

// ---- Cold start: Open (mmap, zero-copy) vs LoadFile (heap copy) ----
//
// BenchmarkOpenColdStart* measure time-to-first-query on the largest
// bench graph (the BA n=20000 construction graph, bp=16): open or load
// the container, answer one query, release. Open does no per-entry
// work, so its cost is a handful of page faults regardless of index
// size; LoadFile copies the file onto the heap and validates every
// label entry.

var (
	coldStartOnce sync.Once
	coldStartDir  string
	coldStartErr  error
)

// coldStartFile builds the bench index once and writes it as a
// container, returning its path.
func coldStartFile(b *testing.B) string {
	b.Helper()
	coldStartOnce.Do(func() {
		buildBenchInputs()
		pg, err := pll.NewGraph(buildBenchGraph.NumVertices(), buildBenchGraph.Edges())
		if err != nil {
			coldStartErr = err
			return
		}
		ix, err := pll.BuildIndex(pg, pll.WithSeed(7), pll.WithBitParallel(16))
		if err != nil {
			coldStartErr = err
			return
		}
		coldStartDir, err = os.MkdirTemp("", "pll-coldstart-*")
		if err != nil {
			coldStartErr = err
			return
		}
		coldStartErr = pll.WriteFlatFile(filepath.Join(coldStartDir, "ix.pllbox"), ix)
	})
	if coldStartErr != nil {
		b.Fatal(coldStartErr)
	}
	return filepath.Join(coldStartDir, "ix.pllbox")
}

func BenchmarkOpenColdStart_Open(b *testing.B) {
	flat := coldStartFile(b)
	b.ResetTimer()
	sink := int64(0)
	for i := 0; i < b.N; i++ {
		fi, err := pll.Open(flat)
		if err != nil {
			b.Fatal(err)
		}
		sink += fi.Distance(0, 19999)
		fi.Close()
	}
	_ = sink
}

func BenchmarkOpenColdStart_LoadFile(b *testing.B) {
	flat := coldStartFile(b)
	b.ResetTimer()
	sink := int64(0)
	for i := 0; i < b.N; i++ {
		o, err := pll.LoadFile(flat)
		if err != nil {
			b.Fatal(err)
		}
		sink += o.Distance(0, 19999)
	}
	_ = sink
}

// ---- Batch distances: Batcher vs N independent merge joins ----
//
// BenchmarkBatchDistances* compare one DistanceFrom call (source label
// pinned once, one label scan per target) against the same 1024
// targets answered by per-pair Distance calls, on the heap-built index
// and on the memory-mapped flat container. The source is the vertex
// with the heaviest label — the regime the §4.5 trick targets: a
// merge join pays |L(s)|+|L(t)| per target, the pinned batch pays
// |L(s)| once and |L(t)| per target, so the win scales with |L(s)|
// (the bit-parallel root checks are per-target either way).

func batchBenchSetup(b *testing.B) (pll.Oracle, int32, []int32) {
	b.Helper()
	flat := coldStartFile(b)
	o, err := pll.LoadFile(flat)
	if err != nil {
		b.Fatal(err)
	}
	// The heaviest-label source (batch workloads like social search key
	// on ordinary users, not hub vertices — and ordinary means a large
	// label).
	cix, err := core.LoadAnyFile(flat)
	if err != nil {
		b.Fatal(err)
	}
	ix := cix.(*core.Index)
	src, best := int32(0), -1
	for v := 0; v < o.NumVertices(); v++ {
		if sz := ix.LabelSize(int32(v)); sz > best {
			src, best = int32(v), sz
		}
	}
	r := rng.New(42)
	targets := make([]int32, 1024)
	for i := range targets {
		targets[i] = r.Int31n(int32(o.NumVertices()))
	}
	return o, src, targets
}

func BenchmarkBatchDistances_Batcher(b *testing.B) {
	o, src, targets := batchBenchSetup(b)
	batcher := o.(pll.Batcher)
	var dst []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = batcher.DistanceFrom(src, targets, dst)
	}
	_ = dst
}

func BenchmarkBatchDistances_SingleQueries(b *testing.B) {
	o, src, targets := batchBenchSetup(b)
	sink := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range targets {
			sink += o.Distance(src, t)
		}
	}
	_ = sink
}

func BenchmarkBatchDistances_FlatBatcher(b *testing.B) {
	_, src, targets := batchBenchSetup(b)
	flat := coldStartFile(b)
	fi, err := pll.Open(flat)
	if err != nil {
		b.Fatal(err)
	}
	defer fi.Close()
	var dst []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = fi.DistanceFrom(src, targets, dst)
	}
	_ = dst
}

// Theorem 4.4's regime: low tree-width inputs.
func BenchmarkAblation_TreeWidth_PLL_Grid(b *testing.B) {
	g := gen.Grid(30, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(g, core.Options{Ordering: order.Degree, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_TreeWidth_TD_Grid(b *testing.B) {
	g := gen.Grid(30, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treedec.Build(g, treedec.Options{MaxBag: 34, MaxCore: 4000}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Hub search: inverted-index kNN vs brute-force sweeps ----
//
// BenchmarkKNN* compare KNN(s, 10) answered by the hub-inverted index
// (heap merge over s's label runs with upper-bound pruning) against
// the two alternatives the plain oracle offers: n per-pair Distance
// calls (the naive plan), and one amortized DistanceFrom batch over
// all n targets (itself ~4x faster than the naive plan) followed by
// top-k selection. The inverted path scans only entries whose merge
// key can still reach the k-th candidate; both sweeps touch all n
// labels. Largest bench graph (BA n=20000, bp=16), 64 rotating
// sources. Bit-parallel roots take part with exact merge keys: a
// root's run is keyed one under the raw sum, and the §5.3 −2
// candidates come from S^{-1} postings, so the merge finalizes with no
// slack. BenchmarkKNN_InvertedNoBP answers the same queries on a bp=0
// index of the same graph (see EXPERIMENTS.md).

var (
	knnBenchOnce    sync.Once
	knnBenchErr     error
	knnBenchOracle  *pll.Index
	knnBenchSources []int32
)

func knnBenchSetup(b *testing.B) (*pll.Index, []int32) {
	b.Helper()
	knnBenchOnce.Do(func() {
		buildBenchInputs()
		pg, err := pll.NewGraph(buildBenchGraph.NumVertices(), buildBenchGraph.Edges())
		if err != nil {
			knnBenchErr = err
			return
		}
		knnBenchOracle, err = pll.BuildIndex(pg, pll.WithSeed(7), pll.WithBitParallel(16))
		if err != nil {
			knnBenchErr = err
			return
		}
		// Warm the lazy inversion so both benchmarks measure steady state.
		if _, err := knnBenchOracle.KNN(0, 1); err != nil {
			knnBenchErr = err
			return
		}
		r := rng.New(42)
		knnBenchSources = make([]int32, 64)
		for i := range knnBenchSources {
			knnBenchSources[i] = r.Int31n(int32(pg.NumVertices()))
		}
	})
	if knnBenchErr != nil {
		b.Fatal(knnBenchErr)
	}
	return knnBenchOracle, knnBenchSources
}

func BenchmarkKNN_Inverted(b *testing.B) {
	ix, sources := knnBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.KNN(sources[i%len(sources)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNN_InvertedNoBP(b *testing.B) {
	_, sources := knnBenchSetup(b)
	pg, err := pll.NewGraph(buildBenchGraph.NumVertices(), buildBenchGraph.Edges())
	if err != nil {
		b.Fatal(err)
	}
	ix, err := pll.BuildIndex(pg, pll.WithSeed(7), pll.WithBitParallel(0))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ix.KNN(0, 1); err != nil { // warm the lazy inversion
		b.Fatal(err)
	}
	for i := 0; b.Loop(); i++ {
		if _, err := ix.KNN(sources[i%len(sources)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNN_BruteForceDistance(b *testing.B) {
	ix, sources := knnBenchSetup(b)
	n := int32(ix.NumVertices())
	sink := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := sources[i%len(sources)]
		for v := int32(0); v < n; v++ {
			sink += ix.Distance(src, v)
		}
	}
	_ = sink
}

func BenchmarkKNN_BruteForceBatch(b *testing.B) {
	ix, sources := knnBenchSetup(b)
	n := ix.NumVertices()
	targets := make([]int32, n)
	for i := range targets {
		targets[i] = int32(i)
	}
	var dst []int64
	top := make([]pll.Neighbor, 0, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := sources[i%len(sources)]
		dst = ix.DistanceFrom(src, targets, dst)
		top = top[:0]
		for v, d := range dst {
			if int32(v) == src || d < 0 {
				continue
			}
			if len(top) == 10 && d >= top[9].Distance {
				continue
			}
			j := len(top)
			if j < 10 {
				top = append(top, pll.Neighbor{})
			} else {
				j = 9
			}
			for j > 0 && (top[j-1].Distance > d || (top[j-1].Distance == d && top[j-1].Vertex > int32(v))) {
				top[j] = top[j-1]
				j--
			}
			top[j] = pll.Neighbor{Vertex: int32(v), Distance: d}
		}
	}
	_ = top
}

func BenchmarkRange_Inverted(b *testing.B) {
	ix, sources := knnBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Range(sources[i%len(sources)], 2); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Composite queries: streaming engine vs materialize-and-intersect ----
//
// BenchmarkComposite* compare one composite query — "within 1 of A AND
// within 4 of B", ranked by the summed legs — answered by the streaming
// engine (internal/runquery: selectivity-ordered constraints, cutoffs
// pushed into the label-run scans, point probes for the non-driver
// constraint) against the plan it replaces: materialize each
// neighborhood with Range, hash-intersect, score and sort. The top-k
// variant additionally stops the ranked scan once the k-th best score
// is out of reach. Same graph and sources as the KNN benches (BA
// n=20000, bp=16, 64 rotating source pairs).

// The constraints are asymmetric on purpose: real fences usually pair
// a tight constraint with a loose one, and the planner's selectivity
// ordering turns the tight side into the driver — the loose
// neighborhood is never materialized, only point-probed. A symmetric
// pair degrades both plans to roughly the same two-scan cost.
func compositeBenchRequest(a, c int32, k int) *pll.CompositeRequest {
	return &pll.CompositeRequest{
		Where: &pll.CompositeClause{And: []*pll.CompositeClause{
			{Near: &pll.NearClause{Source: a, MaxDist: 1}},
			{Near: &pll.NearClause{Source: c, MaxDist: 4}},
		}},
		K: k,
	}
}

func BenchmarkCompositeAND(b *testing.B) {
	ix, sources := knnBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := sources[i%len(sources)], sources[(i+1)%len(sources)]
		if _, err := ix.Composite(compositeBenchRequest(a, c, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompositeTopK(b *testing.B) {
	ix, sources := knnBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := sources[i%len(sources)], sources[(i+1)%len(sources)]
		if _, err := ix.Composite(compositeBenchRequest(a, c, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompositeAND_Materialize is the baseline the engine
// replaces: one Range per constraint, hash-intersect, score and sort.
func BenchmarkCompositeAND_Materialize(b *testing.B) {
	ix, sources := knnBenchSetup(b)
	type match struct {
		v     int32
		score int64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := sources[i%len(sources)], sources[(i+1)%len(sources)]
		nearA, err := ix.Range(a, 1)
		if err != nil {
			b.Fatal(err)
		}
		nearC, err := ix.Range(c, 4)
		if err != nil {
			b.Fatal(err)
		}
		distA := make(map[int32]int64, len(nearA)+1)
		distA[a] = 0
		for _, nb := range nearA {
			distA[nb.Vertex] = nb.Distance
		}
		var ms []match
		if dc, ok := distA[c]; ok {
			ms = append(ms, match{c, dc})
		}
		for _, nb := range nearC {
			if da, ok := distA[nb.Vertex]; ok {
				ms = append(ms, match{nb.Vertex, da + nb.Distance})
			}
		}
		sort.Slice(ms, func(x, y int) bool {
			if ms[x].score != ms[y].score {
				return ms[x].score < ms[y].score
			}
			return ms[x].v < ms[y].v
		})
	}
}
