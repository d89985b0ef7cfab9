package core

import (
	"testing"
	"testing/quick"

	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
)

func TestBatchSourceMatchesQuery(t *testing.T) {
	check := func(seed uint64, bp uint8) bool {
		g := randomGraph(seed, 60)
		ix, err := Build(g, Options{Seed: seed, NumBitParallel: int(bp % 6)})
		if err != nil {
			return false
		}
		n := int32(g.NumVertices())
		r := rng.New(seed ^ 0xba7c4)
		s := r.Int31n(n)
		bs := ix.NewBatchSource(s)
		for i := 0; i < 40; i++ {
			u := r.Int31n(n)
			if bs.Query(u) != ix.Query(s, u) {
				return false
			}
		}
		// Reset to a second source and re-check.
		s2 := r.Int31n(n)
		bs.Reset(s2)
		if bs.src != s2 {
			return false
		}
		for i := 0; i < 40; i++ {
			u := r.Int31n(n)
			if bs.Query(u) != ix.Query(s2, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSourceSelf(t *testing.T) {
	g := gen.Path(10)
	ix := buildOrFail(t, g, Options{})
	bs := ix.NewBatchSource(3)
	if bs.Query(3) != 0 {
		t.Fatal("self distance wrong")
	}
}

func TestBatchSourceDisconnected(t *testing.T) {
	// Star plus one isolated vertex.
	gBig, err := graph.NewGraph(6, gen.Star(5).Edges())
	if err != nil {
		t.Fatal(err)
	}
	ix := buildOrFail(t, gBig, Options{})
	bs := ix.NewBatchSource(0)
	if bs.Query(5) != Unreachable {
		t.Fatal("expected unreachable")
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
	for i := range ix.labelDist {
		if ix.labelDist[i] != InfDist && ix.labelDist[i] > 0 {
			ix.labelDist[i]++
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

func BenchmarkBatchSourceQuery(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 5, 1)
	ix, err := Build(g, Options{NumBitParallel: 8})
	if err != nil {
		b.Fatal(err)
	}
	bs := ix.NewBatchSource(0)
	targets := make([]int32, 1024)
	r := rng.New(5)
	for i := range targets {
		targets[i] = r.Int31n(20000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Query(targets[i&1023])
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
