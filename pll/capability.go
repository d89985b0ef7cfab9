package pll

// Capability interfaces: optional query surfaces discovered by
// type-assertion on an Oracle. The Oracle interface stays the minimal
// contract every index satisfies; capabilities extend it where a
// variant can do better, and callers probe for them instead of
// special-casing concrete types:
//
//	if b, ok := o.(pll.Batcher); ok {
//		dists = b.DistanceFrom(src, targets, dists) // amortized
//	} else {
//		for i, t := range targets {
//			dists[i] = o.Distance(src, t) // always works
//		}
//	}
//
// Every oracle in this package implements Batcher: the static forms
// (*Index, *DirectedIndex, *WeightedIndex and *FlatIndex) through
// their one shared implementation, *DynamicIndex over its growable
// labels, and *ConcurrentOracle by forwarding to its snapshot.
// *FlatIndex also implements Closer.

// Batcher answers many distance queries that share one source faster
// than repeated Distance calls: the source's label is expanded into a
// rank-indexed array once per call (the paper's §4.5 "Querying"
// technique), after which each target costs a single scan of its own
// label — O(|L(t)|) instead of O(|L(s)|+|L(t)|).
type Batcher interface {
	// DistanceFrom returns the exact distances from s to every target,
	// in target order: dst[i] = Distance(s, targets[i]), with
	// Unreachable (-1) for disconnected pairs. dst is reused when its
	// capacity suffices; the returned slice has len(targets).
	//
	// Like Distance, out-of-range vertices panic — validate inputs with
	// Validate first. Implementations are safe for concurrent use under
	// the same conditions as Distance on the same oracle.
	DistanceFrom(s int32, targets []int32, dst []int64) []int64
}

// Closer marks oracles backed by an external resource (a memory
// mapping) that must be released when the oracle is no longer queried.
// Close is idempotent; queries after Close are invalid.
type Closer interface {
	Close() error
}

// DistanceFrom answers a single-source batch over the current labels.
// The whole batch reads one published version, so a concurrent
// InsertEdge never splits it; no lock is taken.
func (d *DynamicIndex) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	return d.di.DistanceFrom(s, targets, dst, nil)
}
