package core

import (
	"testing"

	"pll/internal/trace"
)

// TestProfiledEquivalence checks that the entry points return
// byte-identical answers with and without a profile, and that a
// profile actually accumulates merge and scan counters.
func TestProfiledEquivalence(t *testing.T) {
	g := randomGraph(77, 60)
	ix := buildOrFail(t, g, Options{Seed: 77, NumBitParallel: 2})
	n := int32(g.NumVertices())

	p := &trace.QueryProfile{}
	targets := make([]int32, 0, n)
	for v := int32(0); v < n; v++ {
		targets = append(targets, v)
	}
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			want := int64(ix.Query(s, u))
			if got := ix.Distance(s, u, nil); got != want {
				t.Fatalf("Distance(%d,%d,nil) = %d, want %d", s, u, got, want)
			}
			if got := ix.Distance(s, u, p); got != want {
				t.Fatalf("Distance(%d,%d,p) = %d, want %d", s, u, got, want)
			}
		}
		plain := ix.DistanceFrom(s, targets, nil, nil)
		prof := ix.DistanceFrom(s, targets, nil, p)
		for i := range plain {
			if plain[i] != prof[i] {
				t.Fatalf("DistanceFrom(%d,p)[%d] = %d, want %d", s, i, prof[i], plain[i])
			}
		}
		wantKNN := ix.KNN(s, 5, nil)
		gotKNN := ix.KNN(s, 5, p)
		if len(wantKNN) != len(gotKNN) {
			t.Fatalf("KNN(%d,p) returned %d results, want %d", s, len(gotKNN), len(wantKNN))
		}
		for i := range wantKNN {
			if wantKNN[i] != gotKNN[i] {
				t.Fatalf("KNN(%d,p)[%d] = %v, want %v", s, i, gotKNN[i], wantKNN[i])
			}
		}
	}
	snap := p.Snapshot()
	if snap.MergeCalls == 0 || snap.MergeEntries == 0 {
		t.Fatalf("profile recorded no merges: %+v", snap)
	}
	if snap.ScanRuns == 0 || snap.ScanItems == 0 {
		t.Fatalf("profile recorded no scans: %+v", snap)
	}
}

// TestProfiledDynamic exercises the dynamic variant's profiled entry points.
func TestProfiledDynamic(t *testing.T) {
	g := randomGraph(5, 40)
	di, err := BuildDynamic(g, Options{Seed: 5})
	if err != nil {
		t.Fatalf("BuildDynamic: %v", err)
	}
	n := int32(g.NumVertices())
	p := &trace.QueryProfile{}
	targets := []int32{0, n - 1, n / 2}
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			if got, want := di.Distance(s, u, p), int64(di.Query(s, u)); got != want {
				t.Fatalf("dynamic Distance(%d,%d) = %d, want %d", s, u, got, want)
			}
		}
		plain := di.DistanceFrom(s, targets, nil, nil)
		prof := di.DistanceFrom(s, targets, nil, p)
		for i := range plain {
			if plain[i] != prof[i] {
				t.Fatalf("dynamic DistanceFrom(%d,p)[%d] = %d, want %d", s, i, prof[i], plain[i])
			}
		}
	}
	if snap := p.Snapshot(); snap.MergeCalls == 0 {
		t.Fatalf("dynamic profile recorded no merges: %+v", snap)
	}
}
