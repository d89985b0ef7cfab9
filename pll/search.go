package pll

// Search capability: neighborhood queries served straight from the
// 2-hop labels. Inverting the pruned-landmark labels (hub -> the
// dist-sorted vertices carrying it) turns the distance oracle into a
// search structure that answers "k nearest vertices to s", "everything
// within distance r of s" and "nearest members of a registered subset"
// without touching the graph — the workloads behind social search,
// nearest-POI lookup and local centrality.
//
// Like Batcher, the capability is discovered by type-assertion:
//
//	if sr, ok := o.(pll.Searcher); ok {
//		nearest, _ := sr.KNN(src, 10)
//	}
//
// The static forms (*Index, *DirectedIndex, *WeightedIndex and
// *FlatIndex) implement Searcher through their one shared
// implementation, and *ConcurrentOracle forwards to its snapshot.
// *DynamicIndex does not (edge insertions would invalidate the
// inversion); a ConcurrentOracle wrapping one reports ErrNoSearch.
// The first search query on an index builds and caches the inverted
// index — O(total label size) plus per-hub sorting — unless the index
// was Opened from a flat container written with FlatSearch, which
// memory-maps a persisted inversion and starts cold in O(1).

import (
	"errors"

	"pll/internal/core"
)

// Neighbor is one search answer: a vertex and its exact distance from
// the query source.
type Neighbor = core.Neighbor

// ErrNoSearch is returned by search queries on oracles without the
// search capability (a ConcurrentOracle wrapping a *DynamicIndex).
var ErrNoSearch = errors.New("pll: oracle does not support search queries")

// ErrForeignSet is returned by NearestIn when the set was registered
// on a different oracle (or is nil).
var ErrForeignSet = core.ErrForeignSet

// Searcher answers exact neighborhood queries over the labels. All
// three queries exclude the source vertex itself, order results by
// (distance, vertex ID), and resolve ties at a k-cutoff to the
// smallest vertex IDs — so answers are deterministic and identical
// across heap-loaded, memory-mapped and hot-swapped servings of the
// same index. Implementations are safe for concurrent use.
type Searcher interface {
	// KNN returns the (up to) k nearest vertices to s. Fewer than k
	// results mean fewer than k vertices are reachable from s.
	KNN(s int32, k int) ([]Neighbor, error)
	// Range returns every vertex within distance radius of s. A
	// negative radius yields no results.
	Range(s int32, radius int64) ([]Neighbor, error)
	// NearestIn returns the (up to) k members of set nearest to s. The
	// set must have been registered on this oracle with NewVertexSet.
	NearestIn(s int32, set *VertexSet, k int) ([]Neighbor, error)
	// NewVertexSet registers a vertex subset (the "POI" list) for
	// NearestIn queries, building a filtered inverted index over just
	// the members' labels — registration costs O(total label mass of
	// the members), after which NearestIn is as cheap as a kNN over an
	// index containing only the subset.
	NewVertexSet(members []int32) (*VertexSet, error)
}

// VertexSet is a registered vertex subset with its own filtered
// inverted index. It is immutable, safe for concurrent use, and valid
// only with the oracle that created it (a ConcurrentOracle set dies
// with the snapshot it was registered on — re-register after Swap or
// a server reload).
type VertexSet struct {
	set  *core.VertexSet
	snap Oracle // the snapshot a ConcurrentOracle registered on, else nil
}

// Size returns the number of distinct vertices in the set.
func (vs *VertexSet) Size() int { return vs.set.Size() }

// ---------------------------------------------------------------------
// ConcurrentOracle: search queries run against a consistent snapshot
// under View; a wrapped *DynamicIndex yields ErrNoSearch.
// ---------------------------------------------------------------------

// KNN returns the k nearest vertices to s on the current snapshot (see
// Searcher); ErrNoSearch if the snapshot cannot search.
func (c *ConcurrentOracle) KNN(s int32, k int) ([]Neighbor, error) {
	var out []Neighbor
	err := c.View(func(o Oracle) error {
		sr, ok := o.(Searcher)
		if !ok {
			return ErrNoSearch
		}
		var err error
		out, err = sr.KNN(s, k)
		return err
	})
	return out, err
}

// Range returns every vertex within distance radius of s on the
// current snapshot (see Searcher).
func (c *ConcurrentOracle) Range(s int32, radius int64) ([]Neighbor, error) {
	var out []Neighbor
	err := c.View(func(o Oracle) error {
		sr, ok := o.(Searcher)
		if !ok {
			return ErrNoSearch
		}
		var err error
		out, err = sr.Range(s, radius)
		return err
	})
	return out, err
}

// ErrStaleSet is returned by ConcurrentOracle.NearestIn when the set
// was registered on a snapshot that a Swap (hot reload) has since
// retired; re-register with NewVertexSet.
var ErrStaleSet = errors.New("pll: vertex set was registered on a retired snapshot; re-register after Swap")

// NearestIn returns the k members of set nearest to s (see Searcher).
// The set must have been registered on the *current* snapshot: after a
// Swap, previously registered sets yield ErrStaleSet.
func (c *ConcurrentOracle) NearestIn(s int32, set *VertexSet, k int) ([]Neighbor, error) {
	var out []Neighbor
	err := c.View(func(o Oracle) error {
		sr, ok := o.(Searcher)
		if !ok {
			return ErrNoSearch
		}
		if set == nil {
			return ErrForeignSet
		}
		if set.snap != o {
			return ErrStaleSet
		}
		var err error
		out, err = sr.NearestIn(s, set, k)
		return err
	})
	return out, err
}

// NewVertexSet registers a vertex subset on the current snapshot (see
// Searcher and NearestIn for the staleness contract).
func (c *ConcurrentOracle) NewVertexSet(members []int32) (*VertexSet, error) {
	var out *VertexSet
	err := c.View(func(o Oracle) error {
		sr, ok := o.(Searcher)
		if !ok {
			return ErrNoSearch
		}
		var err error
		out, err = sr.NewVertexSet(members)
		if out != nil {
			out.snap = o
		}
		return err
	})
	return out, err
}
