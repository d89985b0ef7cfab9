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
// Every index variant in this package (*Index, *DirectedIndex,
// *WeightedIndex, *DynamicIndex, *FlatIndex and *ConcurrentOracle)
// implements Batcher; *FlatIndex implements Closer.

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

// DistanceFrom answers a single-source batch with the source label
// pinned once (see Batcher). Safe for concurrent use.
func (ix *Index) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	return ix.ix.DistanceFrom(s, targets, dst)
}

// DistanceFrom answers a single-source directed batch: L_OUT(s) is
// expanded once, each target costs one scan of its L_IN label. Safe for
// concurrent use.
func (ix *DirectedIndex) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	return ix.ix.DistanceFrom(s, targets, dst)
}

// DistanceFrom answers a single-source weighted batch (summed edge
// weights, -1 unreachable). Safe for concurrent use.
func (ix *WeightedIndex) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	return ix.ix.DistanceFrom(s, targets, dst)
}

// DistanceFrom answers a single-source batch over the current labels.
// Like every DynamicIndex read it needs external synchronization
// against InsertEdge (or a ConcurrentOracle wrapper).
func (d *DynamicIndex) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	return d.di.DistanceFrom(s, targets, dst)
}
