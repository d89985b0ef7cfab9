package pll

import (
	"fmt"
	"io"

	"pll/internal/core"
	"pll/internal/graph"
)

// WithWorkers parallelizes index construction across n goroutines: both
// the bit-parallel prelude and the pruned labeling phase itself, which
// runs rank-ordered batches of pruned searches against the frozen labels
// of earlier ranks and merges them deterministically. The resulting
// index is byte-identical to a sequential build for every variant and
// option combination — worker count is purely a speed knob. n = 0 (the
// default) uses GOMAXPROCS; n = 1 forces the sequential code path.
// Build remains externally synchronous: it returns only after all
// workers have finished, and the returned index is immutable.
func WithWorkers(n int) Option {
	return func(opt *core.Options) { opt.Workers = n }
}

// EffectiveWorkers resolves a WithWorkers value to the worker count a
// build will actually use: 0 maps to GOMAXPROCS, negative values clamp
// to 1. Useful for logging build setups next to wall-time measurements.
func EffectiveWorkers(n int) int { return core.EffectiveWorkers(n) }

// DynamicIndex is an incrementally updatable exact distance oracle:
// edges may be inserted after construction and queries remain exact
// (the evolving-network direction of the paper's §8, implemented with
// resumed pruned BFSs). Bit-parallel labels and path reconstruction are
// not available in dynamic mode.
//
// A DynamicIndex is safe for concurrent use, and reads never wait for an
// insert. An insert repairs copies of the label rows it changes and then
// publishes them in one atomic store, so each read call (a Distance, a
// whole DistanceFrom batch, a Stats, a Freeze or WriteTo) sees one
// published version: every edge of an InsertEdge or InsertEdges call, or
// none of them. Concurrent inserts run one at a time.
type DynamicIndex struct {
	di *core.DynamicIndex
}

// BuildDynamic constructs a dynamic index over g.
func BuildDynamic(g *Graph, opts ...Option) (*DynamicIndex, error) {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	o.NumBitParallel = 0
	o.StorePaths = false
	di, err := core.BuildDynamic(g.g, o)
	if err != nil {
		return nil, err
	}
	return &DynamicIndex{di: di}, nil
}

// Distance returns the exact s-t distance under all insertions so far,
// or Unreachable.
func (d *DynamicIndex) Distance(s, t int32) int64 { return d.di.Distance(s, t, nil) }

// Path is unavailable on dynamic indexes (labels carry no parent
// pointers); it always returns an error. It exists so *DynamicIndex
// satisfies Oracle.
func (d *DynamicIndex) Path(s, t int32) ([]int32, error) {
	return nil, fmt.Errorf("pll: dynamic indexes do not support path reconstruction")
}

// InsertEdge adds the undirected edge {a,b} and repairs the labels.
// Inserting an existing edge or a self-loop is a no-op. It returns the
// number of label entries added or decreased. A failed insert (the
// repair overran the 8-bit distance budget) leaves the index unchanged.
func (d *DynamicIndex) InsertEdge(a, b int32) (int, error) { return d.di.InsertEdge(a, b) }

// InsertEdges adds the undirected edges in order and repairs the
// labels, returning the number of label entries added or decreased.
// Self-loops and edges already present are no-ops. The batch applies
// whole or not at all: if any edge is out of range or its repair
// overruns the 8-bit distance budget, the index is left unchanged.
// Concurrent readers see all of the batch's edges or none of them.
func (d *DynamicIndex) InsertEdges(edges []Edge) (int, error) { return d.di.InsertEdges(edges) }

// NumVertices returns the number of vertices the index covers.
func (d *DynamicIndex) NumVertices() int { return d.di.NumVertices() }

// Stats summarizes the index.
func (d *DynamicIndex) Stats() Stats { return d.di.ComputeStats() }

// Freeze snapshots the dynamic index into a static *Index covering all
// insertions published so far. The snapshot is independent of later InsertEdge
// calls and supports everything a statically built index does
// (serialization, batch and search queries).
func (d *DynamicIndex) Freeze() *Index { return newIndex(d.di.Freeze()) }

// WriteTo freezes the index and serializes the snapshot as a container
// tagged with the dynamic variant. Loading it yields a static *Index;
// the insertion log does not survive serialization.
func (d *DynamicIndex) WriteTo(w io.Writer) (int64, error) { return d.di.WriteTo(w) }

// Verify cross-checks the index against the graph it was built from:
// structural label invariants plus sampledPairs random queries against
// BFS ground truth (0 uses a default of 1000). Expensive; intended for
// debugging index pipelines.
func (ix *Index) Verify(g *Graph, sampledPairs int, seed uint64) error {
	return ix.ix.Verify(g.g, core.VerifyOptions{SampledPairs: sampledPairs, Seed: seed})
}

// Edges returns a copy of the graph's edge list (U < V per edge), handy
// for feeding a Graph into other tooling.
func (g *Graph) Edges() []Edge { return g.g.Edges() }

// Components labels each vertex with a connected-component ID and
// returns the number of components.
func (g *Graph) Components() (labels []int32, count int) {
	return graph.ConnectedComponents(g.g)
}
