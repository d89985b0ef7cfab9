package pll_test

// Batcher capability conformance: DistanceFrom must equal per-pair
// Distance on every variant (including the mapped FlatIndex and the
// ConcurrentOracle wrapper) and reuse the destination slice.

import (
	"path/filepath"
	"testing"

	"pll/pll"
)

// batcherOracles returns every oracle flavor that must implement
// Batcher, including wrappers.
func batcherOracles(t *testing.T) []flatCase {
	cases := buildFlatCases(t)
	// Mapped flat oracle.
	path := filepath.Join(t.TempDir(), "batch.pllbox")
	if err := pll.WriteFlatFile(path, cases[1].oracle); err != nil {
		t.Fatal(err)
	}
	fi, err := pll.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fi.Close() })
	cases = append(cases, flatCase{"flat", fi})
	// Concurrent wrappers around a static and a dynamic oracle.
	cases = append(cases,
		flatCase{"concurrent-static", pll.NewConcurrentOracle(cases[0].oracle)},
		flatCase{"concurrent-dynamic", pll.NewConcurrentOracle(cases[5].oracle)},
	)
	return cases
}

func TestBatcherConformanceAllVariants(t *testing.T) {
	for _, tc := range batcherOracles(t) {
		t.Run(tc.name, func(t *testing.T) {
			b, ok := tc.oracle.(pll.Batcher)
			if !ok {
				t.Fatalf("%T does not implement Batcher", tc.oracle)
			}
			n := int32(tc.oracle.NumVertices())
			targets := make([]int32, 0, n)
			for v := n - 1; v >= 0; v-- { // reversed: order must be preserved
				targets = append(targets, v)
			}
			var dst []int64
			for s := int32(0); s < n; s++ {
				dst = b.DistanceFrom(s, targets, dst)
				if len(dst) != len(targets) {
					t.Fatalf("DistanceFrom returned %d distances for %d targets", len(dst), len(targets))
				}
				for i, tv := range targets {
					if want := tc.oracle.Distance(s, tv); dst[i] != want {
						t.Fatalf("DistanceFrom(%d)[target %d] = %d, want Distance %d", s, tv, dst[i], want)
					}
				}
			}
			// Capacity reuse: an ample dst must come back with the same
			// backing array; an empty batch must return an empty slice.
			big := make([]int64, 2*n)
			out := b.DistanceFrom(0, targets, big)
			if len(out) != int(n) || &out[0] != &big[0] {
				t.Fatal("DistanceFrom did not reuse the destination slice")
			}
			if got := b.DistanceFrom(0, nil, nil); len(got) != 0 {
				t.Fatalf("empty batch returned %d distances", len(got))
			}
		})
	}
}
