package pll

// The static query surface. Index, DirectedIndex, WeightedIndex and
// FlatIndex all serve an immutable core index, and every core index
// is one generic label store (internal/core), so the four share one
// implementation of the Oracle and capability methods: each embeds
// static over its core index. That gives all four the Oracle methods
// (Distance, Path, NumVertices, Stats, WriteTo), Batcher
// (DistanceFrom), Searcher (KNN, Range, NearestIn, NewVertexSet),
// CompositeSearcher (Composite), ProfiledOracle (DistanceProfiled,
// DistanceFromProfiled) and SearchProfiler (KNNProfiled). The variants
// and container forms differ only in the core index behind them.

import (
	"io"

	"pll/internal/core"
)

// coreIndex is the query surface *core.Index, *core.DirectedIndex and
// *core.WeightedIndex share through their label store.
type coreIndex interface {
	NumVertices() int
	Variant() core.Variant
	Distance(s, t int32, p *QueryProfile) int64
	DistanceFrom(s int32, targets []int32, dst []int64, p *QueryProfile) []int64
	Path(s, t int32) ([]int32, int64, error)
	KNN(s int32, k int, p *QueryProfile) []Neighbor
	SearchRange(s int32, radius int64) []Neighbor
	NewVertexSet(members []int32) (*core.VertexSet, error)
	KNNIn(s int32, set *core.VertexSet, k int) ([]Neighbor, error)
	Composite(req *CompositeRequest) (*CompositeResult, error)
	ComputeStats() Stats
	WriteFlat(w io.Writer, opts ...FlatOption) (int64, error)
}

// static implements the shared methods over one core index.
type static struct{ c coreIndex }

// index returns the core index; types embedding static satisfy
// interface{ index() coreIndex }.
func (o *static) index() coreIndex { return o.c }

// Distance returns the exact shortest-path distance from s to t — hop
// counts on unweighted indexes, summed edge weights on weighted ones —
// or Unreachable (-1) if t cannot be reached from s.
func (o *static) Distance(s, t int32) int64 { return o.c.Distance(s, t, nil) }

// Path returns one exact shortest path from s to t including both
// endpoints, or nil for disconnected pairs. The index must have been
// built WithPaths.
func (o *static) Path(s, t int32) ([]int32, error) {
	p, _, err := o.c.Path(s, t)
	return p, err
}

// NumVertices returns the number of vertices the index covers.
func (o *static) NumVertices() int { return o.c.NumVertices() }

// Stats summarizes the index (variant, label entries, bytes, ...); on
// a memory-mapped index the scan reads the mapped pages.
func (o *static) Stats() Stats { return o.c.ComputeStats() }

// WriteTo serializes the index as a flat container without the
// optional search sections, read back by Load and Open. It implements
// io.WriterTo. Directed and weighted indexes built WithPaths cannot be
// serialized.
func (o *static) WriteTo(w io.Writer) (int64, error) { return o.c.WriteFlat(w) }

// DistanceFrom answers a single-source batch with the source label
// pinned once (see Batcher); on directed indexes L_OUT(s) is pinned
// and each target costs one scan of its L_IN label. Safe for
// concurrent use.
func (o *static) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	return o.c.DistanceFrom(s, targets, dst, nil)
}

// KNN returns the k nearest vertices to s (see Searcher); directed
// indexes rank by the forward distance d(s, v).
func (o *static) KNN(s int32, k int) ([]Neighbor, error) { return o.KNNProfiled(s, k, nil) }

// Range returns every vertex within distance radius of s (see
// Searcher).
func (o *static) Range(s int32, radius int64) ([]Neighbor, error) {
	if err := Validate(o, s); err != nil {
		return nil, err
	}
	return o.c.SearchRange(s, radius), nil
}

// NearestIn returns the k members of set nearest to s (see Searcher).
func (o *static) NearestIn(s int32, set *VertexSet, k int) ([]Neighbor, error) {
	if err := Validate(o, s); err != nil {
		return nil, err
	}
	if set == nil {
		return nil, ErrForeignSet
	}
	return o.c.KNNIn(s, set.set, k)
}

// NewVertexSet registers a vertex subset for NearestIn queries (see
// Searcher). A set registered on a memory-mapped index references the
// mapping and must not outlive Close.
func (o *static) NewVertexSet(members []int32) (*VertexSet, error) {
	set, err := o.c.NewVertexSet(members)
	if err != nil {
		return nil, err
	}
	return &VertexSet{set: set}, nil
}

// Composite answers a multi-constraint query (see CompositeSearcher);
// directed indexes constrain forward distances d(s → v). When a
// memory-mapped container was written with FlatSearch, the inverted
// index behind the constraint scans is served zero-copy.
func (o *static) Composite(req *CompositeRequest) (*CompositeResult, error) {
	return o.c.Composite(req)
}

// DistanceProfiled is Distance with merge profiling (see
// ProfiledOracle).
func (o *static) DistanceProfiled(s, t int32, p *QueryProfile) int64 { return o.c.Distance(s, t, p) }

// DistanceFromProfiled is DistanceFrom with merge profiling (see
// ProfiledOracle).
func (o *static) DistanceFromProfiled(s int32, targets []int32, dst []int64, p *QueryProfile) []int64 {
	return o.c.DistanceFrom(s, targets, dst, p)
}

// KNNProfiled is KNN with hub-scan profiling (see SearchProfiler).
func (o *static) KNNProfiled(s int32, k int, p *QueryProfile) ([]Neighbor, error) {
	if err := Validate(o, s); err != nil {
		return nil, err
	}
	return o.c.KNN(s, k, p), nil
}
