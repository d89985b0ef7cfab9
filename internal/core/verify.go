package core

import (
	"fmt"

	"pll/internal/bfs"
	"pll/internal/graph"
	"pll/internal/rng"
)

// VerifyOptions configures Verify.
type VerifyOptions struct {
	// SampledPairs is the number of random pairs cross-checked against
	// BFS ground truth (default 1000; 0 keeps the default, negative
	// skips the exactness check).
	SampledPairs int
	// Seed drives the pair sampling.
	Seed uint64
}

// Verify checks an index against the graph it claims to cover: the
// structural invariants of the label arrays (strict hub sorting,
// sentinels, the canonical hub-rank property, finite distances) and the
// exactness of sampled queries. It returns a descriptive error on the
// first violation. Intended for debugging pipelines that move indexes
// between systems; it is O(index + pairs·BFS), not cheap.
func (ix *Index) Verify(g *graph.Graph, opt VerifyOptions) error {
	if g.NumVertices() != ix.n {
		return fmt.Errorf("core: verify: graph has %d vertices, index %d", g.NumVertices(), ix.n)
	}
	if len(ix.perm) != ix.n || len(ix.rank) != ix.n {
		return fmt.Errorf("core: verify: permutation arrays sized %d/%d, want %d", len(ix.perm), len(ix.rank), ix.n)
	}
	for r := 0; r < ix.n; r++ {
		if ix.rank[ix.perm[r]] != int32(r) {
			return fmt.Errorf("core: verify: rank/perm mismatch at rank %d", r)
		}
	}
	// Label structure.
	l := ix.out
	if len(l.off) != ix.n+1 {
		return fmt.Errorf("core: verify: label offsets length %d, want %d", len(l.off), ix.n+1)
	}
	for r := 0; r < ix.n; r++ {
		lo, hi := l.off[r], l.off[r+1]
		if hi <= lo {
			return fmt.Errorf("core: verify: vertex rank %d has no sentinel slot", r)
		}
		if l.vertex[hi-1] != int32(ix.n) || l.dist[hi-1] != InfDist {
			return fmt.Errorf("core: verify: vertex rank %d missing sentinel", r)
		}
		prev := int32(-1)
		for i := lo; i < hi-1; i++ {
			hub := l.vertex[i]
			if hub <= prev {
				return fmt.Errorf("core: verify: label of rank %d not strictly sorted at entry %d", r, i-lo)
			}
			prev = hub
			if hub < 0 || int(hub) >= ix.n {
				return fmt.Errorf("core: verify: hub rank %d out of range in label of rank %d", hub, r)
			}
			if hub > int32(r) {
				return fmt.Errorf("core: verify: canonical property violated: hub rank %d > vertex rank %d", hub, r)
			}
			if l.dist[i] == InfDist {
				return fmt.Errorf("core: verify: infinite distance stored in label of rank %d", r)
			}
		}
	}
	// Bit-parallel block sizes.
	if len(ix.bpDist) != ix.numBP*ix.n || len(ix.bpS1) != ix.numBP*ix.n || len(ix.bpS0) != ix.numBP*ix.n {
		return fmt.Errorf("core: verify: bit-parallel arrays sized %d/%d/%d, want %d",
			len(ix.bpDist), len(ix.bpS1), len(ix.bpS0), ix.numBP*ix.n)
	}
	// Sampled exactness.
	pairs := opt.SampledPairs
	if pairs == 0 {
		pairs = 1000
	}
	if pairs < 0 || ix.n == 0 {
		return nil
	}
	r := rng.New(opt.Seed)
	for i := 0; i < pairs; i++ {
		s := r.Int31n(int32(ix.n))
		t := r.Int31n(int32(ix.n))
		want := bfs.Distance(g, s, t)
		got := ix.Query(s, t)
		if want == bfs.Unreachable {
			if got != Unreachable {
				return fmt.Errorf("core: verify: Query(%d,%d) = %d, want unreachable", s, t, got)
			}
			continue
		}
		if got != int(want) {
			return fmt.Errorf("core: verify: Query(%d,%d) = %d, want %d", s, t, got, want)
		}
	}
	return nil
}
