package core

// Builder outputs pinned across commits. The container digests in
// pll/golden_test.go cannot see directed or weighted parent pointers
// (containers do not hold them), nor the per-search counters of
// BuildStats that feed Figures 3 and 4. This test hashes what each
// builder leaves in memory: every column (off, vertex, dist, parent) of
// every label family of directed and weighted path-storing builds and
// of a dynamic index frozen after a fixed run of insertions, the label
// delta each of those insertions returned (once one edge per call, once
// on a bigger graph in calls of one to three edges that share an
// endpoint, whose row later edges of the call edit in place), plus all
// four BuildStats vectors of an undirected bit-parallel build (stats
// force a sequential build). The label builds run sequentially and
// batch-parallel under a forced schedule; both must produce the
// recorded digest.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
	"testing"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
)

// hashColumns writes each column prefixed with its byte size, so a nil
// parent column cannot pass for a shifted neighbor. Writes to a hash
// never fail.
func hashColumns(h hash.Hash, cols ...any) {
	for _, c := range cols {
		binary.Write(h, binary.LittleEndian, int64(binary.Size(c)))
		binary.Write(h, binary.LittleEndian, c)
	}
}

func familyDigest[D dist](fams ...*labels[D]) string {
	h := sha256.New()
	for _, f := range fams {
		hashColumns(h, f.off, f.vertex, f.dist, f.parent)
	}
	return hex.EncodeToString(h.Sum(nil))
}

var builderDigests = map[string]string{
	"directed-paths": "19ea555e15028575b12d7984b1cd3b539af547cfe68a7ffd717ca9355e8436bf",
	"weighted-paths": "837ab23062432f71d0a1ff747d625a1630abf8133cef4ad7b126f197288e8f55",
	"dynamic-frozen": "a7d225fd099e41b3dc4f80bed73d53250b211af096965ec9ce39f3d495bbebbe",
	"dynamic-deltas": "240a4ce1990570866069c9af2fe360ad9b489512bd54573b9ab347e5d0c3cbad",
	"batches-frozen": "d10e9514e26ed04680b6d052011cc570cca71ef1e45a2f4473cdfa488a0c2bc6",
	"batches-deltas": "933f6e5bb9c10fd95f753b7f6dc06b0b61ded9a644827c37d2737b846f4c964a",
	"stats-bp4":      "2a262d0a10e6e2883c7e00774a2876fadc711e986ab009ab4b81c5bac90504ca",
}

func TestBuilderOutputsGolden(t *testing.T) {
	forceBatchSchedule(t, 4, 2, 64)
	check := func(key, got string) {
		t.Helper()
		if want := builderDigests[key]; got != want {
			t.Errorf("%s: digest %s, want %s", key, got, want)
		}
	}
	dg := gen.RandomDigraph(120, 420, 5)
	wg := gen.RandomWeights(gen.BarabasiAlbert(120, 3, 6), 0, 6, 7) // zero-weight edges included
	ug := randomGraph(8, 140)
	for _, workers := range []int{1, 4} {
		dix, err := BuildDirected(dg, Options{Seed: 3, StorePaths: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		check("directed-paths", familyDigest(dix.out, dix.in))

		wix, err := BuildWeighted(wg, Options{Seed: 3, StorePaths: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		check("weighted-paths", familyDigest(wix.out))

		di, err := BuildDynamic(ug, Options{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(11)
		n := int32(ug.NumVertices())
		deltas := make([]int64, 25)
		for i := range deltas {
			delta, err := di.InsertEdge(r.Int31n(n), r.Int31n(n))
			if err != nil {
				t.Fatal(err)
			}
			deltas[i] = int64(delta)
		}
		check("dynamic-frozen", familyDigest(di.Freeze().out))
		h := sha256.New()
		hashColumns(h, deltas)
		check("dynamic-deltas", hex.EncodeToString(h.Sum(nil)))
	}

	// 240 new edges on BA n=2,000, m=4, in InsertEdges calls of one to
	// three edges around one random endpoint, on either side of each
	// edge. From a call's second edge on, that endpoint's row is the
	// writer's copy with room to spare, so its label grows in place.
	const bn = 2000
	bg := gen.BarabasiAlbert(bn, 4, 19)
	di, err := BuildDynamic(bg, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	edges := bg.Edges()
	var deltas []int64
	for left := 240; left > 0; {
		a := r.Int31n(bn)
		var far []int32
		var call []graph.Edge
		for k := min(left, 1+r.Intn(3)); len(call) < k; {
			b := r.Int31n(bn)
			if b == a || di.Query(a, b) == 1 || slices.Contains(far, b) {
				continue
			}
			far = append(far, b)
			e := graph.Edge{U: a, V: b}
			if r.Intn(2) == 0 {
				e = graph.Edge{U: b, V: a}
			}
			call = append(call, e)
		}
		delta, err := di.InsertEdges(call)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, int64(delta))
		edges = append(edges, call...)
		left -= len(call)
	}
	check("batches-frozen", familyDigest(di.Freeze().out))
	h := sha256.New()
	hashColumns(h, deltas)
	check("batches-deltas", hex.EncodeToString(h.Sum(nil)))
	// Digests re-recorded after a change would pin whatever it built, so
	// answers from every 7th source are checked against BFS as well.
	after, err := graph.NewGraph(bn, edges)
	if err != nil {
		t.Fatal(err)
	}
	for s := int32(0); s < bn; s += 7 {
		truth := bfs.AllDistances(after, s)
		for u := int32(0); u < bn; u++ {
			if got := di.Query(s, u); got != int(truth[u]) {
				t.Fatalf("after the batched inserts Query(%d,%d) = %d, want %d", s, u, got, truth[u])
			}
		}
	}

	var bs BuildStats
	if _, err := Build(gen.BarabasiAlbert(300, 3, 17), Options{NumBitParallel: 4, Seed: 3, CollectStats: &bs}); err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	hashColumns(h, bs.LabelsPerBFS, bs.VisitedPerBFS, bs.RootRank, bs.IsBitParallel)
	check("stats-bp4", hex.EncodeToString(h.Sum(nil)))
}
