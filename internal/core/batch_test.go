package core

import (
	"testing"
	"testing/quick"

	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
	"pll/internal/trace"
)

// batchOracle is the single-source surface every variant shares.
type batchOracle interface {
	NumVertices() int
	Distance(s, t int32, p *trace.QueryProfile) int64
	DistanceFrom(s int32, targets []int32, dst []int64, p *trace.QueryProfile) []int64
}

// checkDistanceFrom answers two single-source batches per source (the
// pooled scratch is reused between them) and compares every entry with
// the pairwise merge join.
func checkDistanceFrom(o batchOracle, seed uint64) bool {
	n := int32(o.NumVertices())
	r := rng.New(seed ^ 0xba7c4)
	targets := make([]int32, 40)
	var dst []int64
	for round := 0; round < 2; round++ {
		s := r.Int31n(n)
		for i := range targets {
			targets[i] = r.Int31n(n)
		}
		targets[0] = s
		dst = o.DistanceFrom(s, targets, dst, nil)
		if len(dst) != len(targets) {
			return false
		}
		for i, u := range targets {
			if dst[i] != o.Distance(s, u, nil) {
				return false
			}
		}
	}
	return true
}

func TestDistanceFromMatchesQuery(t *testing.T) {
	check := func(seed uint64, bp uint8) bool {
		ix, err := Build(randomGraph(seed, 60), Options{Seed: seed, NumBitParallel: int(bp % 6)})
		if err != nil {
			return false
		}
		dx, err := BuildDirected(randomDigraphFor(seed, 60), Options{Seed: seed})
		if err != nil {
			return false
		}
		wx, err := BuildWeighted(randomWeightedGraph(seed, 60, 9), Options{Seed: seed})
		if err != nil {
			return false
		}
		return checkDistanceFrom(ix, seed) && checkDistanceFrom(dx, seed) && checkDistanceFrom(wx, seed)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// starOracles builds every variant over a 5-vertex star plus one
// isolated vertex (5).
func starOracles(t *testing.T) map[string]batchOracle {
	t.Helper()
	g, err := graph.NewGraph(6, gen.Star(5).Edges())
	if err != nil {
		t.Fatal(err)
	}
	dg, err := graph.NewDigraph(6, gen.Star(5).Edges())
	if err != nil {
		t.Fatal(err)
	}
	dx, err := BuildDirected(dg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wx, err := BuildWeighted(graph.UniformWeighted(g, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]batchOracle{
		"undirected": buildOrFail(t, g, Options{}),
		"bp":         buildOrFail(t, g, Options{NumBitParallel: 2}),
		"directed":   dx,
		"weighted":   wx,
	}
}

func TestDistanceFromSelf(t *testing.T) {
	for name, o := range starOracles(t) {
		if got := o.DistanceFrom(3, []int32{3, 3}, nil, nil); got[0] != 0 || got[1] != 0 {
			t.Fatalf("%s: DistanceFrom(3, [3 3]) = %v, want [0 0]", name, got)
		}
		if got := o.DistanceFrom(3, nil, nil, nil); len(got) != 0 {
			t.Fatalf("%s: empty batch returned %v", name, got)
		}
	}
}

func TestDistanceFromDisconnected(t *testing.T) {
	for name, o := range starOracles(t) {
		if got := o.DistanceFrom(0, []int32{5, 1}, nil, nil); got[0] != Unreachable || got[1] == Unreachable {
			t.Fatalf("%s: DistanceFrom(0, [5 1]) = %v, want [-1 d]", name, got)
		}
	}
}

func TestVerifyAcceptsFreshIndexes(t *testing.T) {
	for _, bp := range []int{0, 4} {
		g := gen.BarabasiAlbert(150, 3, 7)
		ix := buildOrFail(t, g, Options{NumBitParallel: bp, Seed: 1})
		if err := ix.Verify(g, VerifyOptions{SampledPairs: 300, Seed: 2}); err != nil {
			t.Fatalf("bp=%d: %v", bp, err)
		}
	}
}

func TestVerifyRejectsWrongGraph(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 1)
	other := gen.BarabasiAlbert(100, 2, 2) // different topology, same size
	ix := buildOrFail(t, g, Options{Seed: 1})
	if err := ix.Verify(other, VerifyOptions{SampledPairs: 500, Seed: 3}); err == nil {
		t.Fatal("verification against a different graph should fail")
	}
	small := gen.Path(5)
	if err := ix.Verify(small, VerifyOptions{}); err == nil {
		t.Fatal("verification against a smaller graph should fail")
	}
}

func TestVerifyDetectsCorruptedLabels(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 5)
	ix := buildOrFail(t, g, Options{Seed: 1})
	// Corrupt one label distance.
	for i, d := range ix.out.dist {
		if d != InfDist && d > 0 {
			ix.out.dist[i]++
			break
		}
	}
	if err := ix.Verify(g, VerifyOptions{SampledPairs: 2000, Seed: 4}); err == nil {
		t.Fatal("verification should detect a corrupted distance")
	}
}

func TestVerifySkipsExactnessWhenNegative(t *testing.T) {
	g := gen.Path(10)
	ix := buildOrFail(t, g, Options{})
	if err := ix.Verify(g, VerifyOptions{SampledPairs: -1}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDistanceFromQuery(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 5, 1)
	ix, err := Build(g, Options{NumBitParallel: 8})
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]int32, 1024)
	r := rng.New(5)
	for i := range targets {
		targets[i] = r.Int31n(20000)
	}
	var dst []int64
	b.ResetTimer()
	for i := 0; i < b.N; i += len(targets) {
		dst = ix.DistanceFrom(0, targets, dst, nil)
	}
}

func BenchmarkPairwiseQueryForComparison(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 5, 1)
	ix, err := Build(g, Options{NumBitParallel: 8})
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]int32, 1024)
	r := rng.New(5)
	for i := range targets {
		targets[i] = r.Int31n(20000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(0, targets[i&1023])
	}
}
