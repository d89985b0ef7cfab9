package core

// The equivalence layer behind the parallel builder: for every variant,
// every option combination and several batch schedules, a parallel
// build must be BYTE-IDENTICAL to the sequential build — same labels,
// same distances, same parents, same serialized container — and both
// must match BFS/Dijkstra ground truth. These tests are the proof
// obligation for parallel.go's determinism argument; if a future change
// breaks a pruning-order subtlety, this file is what catches it.

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/order"
	"pll/internal/rng"
)

// containerBytes serializes any index through its container WriteTo.
func containerBytes(t *testing.T, wt io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := wt.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// forceBatchSchedule overrides the batch-ramp knobs for the duration of
// the test, so that even tiny graphs exercise real batches. The output
// must not depend on the schedule; several tests sweep it.
func forceBatchSchedule(t *testing.T, prefix, div, cap_ int) {
	t.Helper()
	op, od, oc := parallelSeqPrefix, parallelBatchDiv, maxPrunedBatch
	parallelSeqPrefix, parallelBatchDiv, maxPrunedBatch = prefix, div, cap_
	t.Cleanup(func() {
		parallelSeqPrefix, parallelBatchDiv, maxPrunedBatch = op, od, oc
	})
}

// equivGraphs is the undirected test corpus: preferential-attachment,
// grid, tree, and sparse multi-component random graphs.
func equivGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ba":     gen.BarabasiAlbert(180, 3, 11),
		"grid":   gen.Grid(9, 14),
		"tree":   gen.RandomTree(150, 5),
		"rand1":  randomGraph(21, 90),
		"rand2":  randomGraph(22, 120),
		"sparse": randomGraph(23, 40),
	}
}

func TestParallelEquivUndirected(t *testing.T) {
	forceBatchSchedule(t, 8, 2, 64)
	type combo struct {
		bp    int
		paths bool
	}
	combos := []combo{{0, false}, {16, false}, {0, true}, {16, true}}
	orderings := []order.Strategy{order.Degree, order.Random}
	for name, g := range equivGraphs() {
		for _, ord := range orderings {
			for _, c := range combos {
				opt := Options{Ordering: ord, Seed: 3, NumBitParallel: c.bp, StorePaths: c.paths, Workers: 1}
				seq := buildOrFail(t, g, opt)
				want := containerBytes(t, seq)
				for _, workers := range []int{2, 8} {
					opt.Workers = workers
					par := buildOrFail(t, g, opt)
					if got := containerBytes(t, par); !bytes.Equal(got, want) {
						t.Fatalf("%s ord=%v bp=%d paths=%v workers=%d: parallel container differs from sequential (%d vs %d bytes)",
							name, ord, c.bp, c.paths, workers, len(got), len(want))
					}
				}
				// Parallel output == sequential bytes; one ground-truth
				// pass against BFS distances covers both.
				opt.Workers = 8
				assertMatchesBFS(t, g, buildOrFail(t, g, opt), 120, 17)
			}
		}
	}
}

func TestParallelEquivUndirectedPaths(t *testing.T) {
	// Parents must reproduce the sequential BFS tree exactly; also check
	// the reconstructed paths are valid shortest paths.
	forceBatchSchedule(t, 4, 1, 32)
	g := gen.BarabasiAlbert(300, 2, 9)
	seq := buildOrFail(t, g, Options{StorePaths: true, Workers: 1})
	par := buildOrFail(t, g, Options{StorePaths: true, Workers: 8})
	if !reflect.DeepEqual(seq.out.parent, par.out.parent) {
		t.Fatal("parallel parent pointers differ from sequential")
	}
	for _, p := range randPairs(300, 150, 31) {
		want, _, err := seq.Path(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := par.Path(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Path(%d,%d): parallel %v != sequential %v", p[0], p[1], got, want)
		}
	}
}

// randomDigraphFor builds a sparse random digraph, sometimes with
// several components.
func randomDigraphFor(seed uint64, maxN int) *graph.Digraph {
	r := rng.New(seed)
	n := r.Intn(maxN) + 2
	m := int64(r.Intn(4 * n))
	return gen.RandomDigraph(n, m, seed^0xd1a9)
}

func TestParallelEquivDirected(t *testing.T) {
	forceBatchSchedule(t, 8, 2, 64)
	for seed := uint64(1); seed <= 6; seed++ {
		g := randomDigraphFor(seed, 130)
		for _, ord := range []order.Strategy{order.Degree, order.Random} {
			for _, paths := range []bool{false, true} {
				opt := Options{Ordering: ord, Seed: 5, StorePaths: paths, Workers: 1}
				seq, err := BuildDirected(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 8} {
					opt.Workers = workers
					par, err := BuildDirected(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					// The container format rejects directed parent
					// pointers, so compare the in-memory index
					// representation (covers labels AND parents);
					// serializable builds also compare container bytes.
					if !reflect.DeepEqual(seq, par) {
						t.Fatalf("seed=%d ord=%v paths=%v workers=%d: parallel directed index differs", seed, ord, paths, workers)
					}
					if !paths {
						if !bytes.Equal(containerBytes(t, seq), containerBytes(t, par)) {
							t.Fatalf("seed=%d ord=%v workers=%d: directed container bytes differ", seed, ord, workers)
						}
					}
				}
				// Ground truth: directed BFS distances.
				n := g.NumVertices()
				for _, p := range randPairs(n, 120, seed+41) {
					want := int(bfs.DirectedDistance(g, p[0], p[1]))
					if got := seq.Query(p[0], p[1]); got != want {
						t.Fatalf("directed Query(%d,%d) = %d, want %d", p[0], p[1], got, want)
					}
				}
			}
		}
	}
}

// randomWeightedFor attaches random weights (including zero-weight
// edges, which stress Dijkstra tie-breaking) to a random graph.
func randomWeightedFor(seed uint64, maxN int, minW, maxW uint32) *graph.Weighted {
	return gen.RandomWeights(randomGraph(seed, maxN), minW, maxW, seed^0x77)
}

func TestParallelEquivWeighted(t *testing.T) {
	forceBatchSchedule(t, 8, 2, 64)
	for seed := uint64(1); seed <= 6; seed++ {
		minW := uint32(1)
		if seed%2 == 0 {
			minW = 0 // zero-weight edges: many equal-distance pops
		}
		g := randomWeightedFor(seed, 130, minW, 9)
		for _, ord := range []order.Strategy{order.Degree, order.Random} {
			for _, paths := range []bool{false, true} {
				opt := Options{Ordering: ord, Seed: 5, StorePaths: paths, Workers: 1}
				seq, err := BuildWeighted(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 8} {
					opt.Workers = workers
					par, err := BuildWeighted(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(seq, par) {
						t.Fatalf("seed=%d ord=%v paths=%v workers=%d: parallel weighted index differs", seed, ord, paths, workers)
					}
					if !paths {
						if !bytes.Equal(containerBytes(t, seq), containerBytes(t, par)) {
							t.Fatalf("seed=%d ord=%v workers=%d: weighted container bytes differ", seed, ord, workers)
						}
					}
				}
				// Ground truth: Dijkstra distances.
				n := g.NumVertices()
				for _, p := range randPairs(n, 120, seed+43) {
					want := bfs.DijkstraDistance(g, p[0], p[1])
					if want == bfs.InfWeight {
						want = UnreachableW
					}
					if got := seq.Query(p[0], p[1]); got != want {
						t.Fatalf("weighted Query(%d,%d) = %d, want %d", p[0], p[1], got, want)
					}
				}
			}
		}
	}
}

func TestParallelEquivDynamic(t *testing.T) {
	forceBatchSchedule(t, 8, 2, 64)
	for seed := uint64(1); seed <= 4; seed++ {
		g := randomGraph(seed+50, 130)
		n := g.NumVertices()
		seq, err := BuildDynamic(g, Options{Seed: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := BuildDynamic(g, Options{Seed: 2, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(containerBytes(t, seq.Freeze()), containerBytes(t, par.Freeze())) {
			t.Fatalf("seed=%d: parallel dynamic initial build differs from sequential", seed)
		}
		// Incremental updates are sequential and unchanged; after the
		// same insertions both indexes must still agree bit for bit.
		r := rng.New(seed ^ 0xabc)
		for i := 0; i < 25; i++ {
			a, b := r.Int31n(int32(n)), r.Int31n(int32(n))
			if _, err := seq.InsertEdge(a, b); err != nil {
				t.Fatal(err)
			}
			if _, err := par.InsertEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(containerBytes(t, seq.Freeze()), containerBytes(t, par.Freeze())) {
			t.Fatalf("seed=%d: dynamic indexes diverged after identical insertions", seed)
		}
	}
}

// TestParallelEquivScheduleSweep pins down that the batch schedule is a
// pure performance knob: wildly different prefixes, ramps and caps must
// all produce the sequential bytes.
func TestParallelEquivScheduleSweep(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 13)
	seqIx := buildOrFail(t, g, Options{NumBitParallel: 8, Seed: 1, Workers: 1})
	want := containerBytes(t, seqIx)
	schedules := []struct{ prefix, div, cap_ int }{
		{1, 1, 4},      // tiny batches from the second root on
		{1, 1, 100000}, // batch size doubles without bound
		{0, 1, 100000}, // no sequential prefix at all
		{64, 8, 512},   // production-like
	}
	for _, s := range schedules {
		forceBatchSchedule(t, s.prefix, s.div, s.cap_)
		par := buildOrFail(t, g, Options{NumBitParallel: 8, Seed: 1, Workers: 4})
		if !bytes.Equal(containerBytes(t, par), want) {
			t.Fatalf("schedule %+v: parallel container differs from sequential", s)
		}
	}
}

// TestParallelEquivLarger runs one bigger instance per variant so that
// the production ramp (not just the forced tiny schedules) sees real
// multi-batch construction.
func TestParallelEquivLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("larger equivalence corpus")
	}
	g := gen.BarabasiAlbert(2500, 4, 3)
	seq := buildOrFail(t, g, Options{NumBitParallel: 16, Seed: 7, Workers: 1})
	par := buildOrFail(t, g, Options{NumBitParallel: 16, Seed: 7, Workers: 8})
	if !bytes.Equal(containerBytes(t, seq), containerBytes(t, par)) {
		t.Fatal("undirected: parallel container differs at production schedule")
	}

	dg := gen.RandomDigraph(1200, 4800, 5)
	dseq, err := BuildDirected(dg, Options{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dpar, err := BuildDirected(dg, Options{Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(containerBytes(t, dseq), containerBytes(t, dpar)) {
		t.Fatal("directed: parallel container differs at production schedule")
	}

	wg := gen.RandomWeights(gen.BarabasiAlbert(1200, 3, 9), 1, 12, 4)
	wseq, err := BuildWeighted(wg, Options{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wpar, err := BuildWeighted(wg, Options{Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(containerBytes(t, wseq), containerBytes(t, wpar)) {
		t.Fatal("weighted: parallel container differs at production schedule")
	}
}

// TestParallelDiameterOverflow pins the fallback path: when a relaxed
// batch search overruns — or brushes against — the 8-bit distance
// budget, the merge re-runs the root sequentially, so parallel builds
// fail (or succeed) exactly like sequential ones, including right at
// the budget boundary.
func TestParallelDiameterOverflow(t *testing.T) {
	forceBatchSchedule(t, 1, 1, 100000)
	long := gen.Path(400)
	if _, err := Build(long, Options{Workers: 4}); err == nil {
		t.Fatal("expected diameter error from parallel build on a 400-path")
	}
	// Path graphs bracketing the budget (eccentricities land on either
	// side of MaxDist depending on the rank-0 root's position): whatever
	// the sequential build does — error or index — the parallel build
	// must do identically, for paths on and off.
	for _, n := range []int{250, 255, 256, 300} {
		for _, paths := range []bool{false, true} {
			g := gen.Path(n)
			seq, seqErr := Build(g, Options{StorePaths: paths, Workers: 1})
			par, parErr := Build(g, Options{StorePaths: paths, Workers: 4})
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("Path(%d) paths=%v: sequential err=%v, parallel err=%v", n, paths, seqErr, parErr)
			}
			if seqErr != nil {
				continue
			}
			if !bytes.Equal(containerBytes(t, seq), containerBytes(t, par)) {
				t.Fatalf("Path(%d) paths=%v: parallel container differs", n, paths)
			}
		}
	}
	// Directed chain beyond the budget: both builds must fail.
	arcs := make([]graph.Edge, 299)
	for i := range arcs {
		arcs[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
	}
	dg, err := graph.NewDigraph(300, arcs)
	if err != nil {
		t.Fatal(err)
	}
	_, seqErr := BuildDirected(dg, Options{Workers: 1})
	_, parErr := BuildDirected(dg, Options{Workers: 4})
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("directed chain: sequential err=%v, parallel err=%v", seqErr, parErr)
	}
	// Weighted 32-bit budget: the path 2-3-4 with two edges of weight w
	// behind two isolated vertices, so the root at rank 2 runs in a real
	// batch. 2w = 2^32-2 fits the label budget; 2w = 2^32 does not, and
	// both builds must fail, with and without paths.
	for _, w := range []uint32{1<<31 - 1, 1 << 31} {
		wg, err := graph.NewWeighted(5, []graph.WeightedEdge{{U: 2, V: 3, Weight: w}, {U: 3, V: 4, Weight: w}})
		if err != nil {
			t.Fatal(err)
		}
		fits := w < 1<<31
		for _, paths := range []bool{false, true} {
			opt := Options{CustomOrder: []int32{0, 1, 2, 3, 4}, StorePaths: paths, Workers: 1}
			seq, seqErr := BuildWeighted(wg, opt)
			opt.Workers = 4
			par, parErr := BuildWeighted(wg, opt)
			if (seqErr == nil) != fits || (parErr == nil) != fits {
				t.Fatalf("weighted w=%d paths=%v: sequential err=%v, parallel err=%v", w, paths, seqErr, parErr)
			}
			if !fits {
				continue
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("weighted w=%d paths=%v: parallel index differs", w, paths)
			}
			if !paths && !bytes.Equal(containerBytes(t, seq), containerBytes(t, par)) {
				t.Fatalf("weighted w=%d: parallel container differs", w)
			}
			if got := seq.Query(2, 4); got != 1<<32-2 {
				t.Fatalf("weighted w=%d paths=%v: d(2,4) = %d, want %d", w, paths, got, uint64(1<<32-2))
			}
		}
	}
}

// TestRaceParallelConstructionAllVariants is the dedicated race-detector
// workload: build every variant with 8 workers on graphs big enough for
// multi-batch schedules. Run it with -race (see the CI race job).
func TestRaceParallelConstructionAllVariants(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 4, 21)
	if _, err := Build(g, Options{NumBitParallel: 16, Seed: 1, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, Options{StorePaths: true, Seed: 1, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	dg := gen.RandomDigraph(800, 3200, 22)
	if _, err := BuildDirected(dg, Options{Seed: 1, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	wg := gen.RandomWeights(gen.BarabasiAlbert(800, 3, 23), 1, 9, 24)
	if _, err := BuildWeighted(wg, Options{Seed: 1, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildDynamic(gen.BarabasiAlbert(800, 3, 25), Options{Seed: 1, Workers: 8}); err != nil {
		t.Fatal(err)
	}
}
