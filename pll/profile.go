package pll

// Profiled query capabilities: the same answers as Distance /
// DistanceFrom / KNN with a per-query profile threaded into the label
// engines, so the serving tiers can attribute request latency to
// admission wait, cache probes, label merging and hub scanning. Like
// Batcher and Searcher, the capability is discovered by type-assertion:
//
//	p := trace.ProfileFromContext(ctx) // nil when untraced
//	if po, ok := o.(pll.ProfiledOracle); ok {
//		d = po.DistanceProfiled(s, t, p)
//	} else {
//		d = o.Distance(s, t)
//	}
//
// A nil profile is always valid and costs one branch, so callers probe
// for the capability once and never fork on whether tracing is active.
// The static forms (*Index, *DirectedIndex, *WeightedIndex and
// *FlatIndex) implement ProfiledOracle and SearchProfiler through their
// one shared implementation, whose plain methods are the same engines
// with a nil profile; *DynamicIndex implements ProfiledOracle.

import "pll/internal/trace"

// QueryProfile is the per-request stage-timer sink; see
// internal/trace. All methods are safe on a nil receiver.
type QueryProfile = trace.QueryProfile

// ProfiledOracle answers distance queries while attributing their
// label-merge work to a QueryProfile. Implementations return exactly
// what Distance / DistanceFrom return; a nil profile records nothing.
type ProfiledOracle interface {
	// DistanceProfiled is Distance with merge profiling.
	DistanceProfiled(s, t int32, p *QueryProfile) int64
	// DistanceFromProfiled is Batcher.DistanceFrom with merge profiling.
	DistanceFromProfiled(s int32, targets []int32, dst []int64, p *QueryProfile) []int64
}

// SearchProfiler answers KNN queries while attributing their hub-scan
// work to a QueryProfile, with the exact Searcher.KNN contract.
type SearchProfiler interface {
	KNNProfiled(s int32, k int, p *QueryProfile) ([]Neighbor, error)
}

// DistanceProfiled is Distance with merge profiling (see
// ProfiledOracle). Like every DynamicIndex read it is safe to call
// while edges are inserted, and sees one published version.
func (d *DynamicIndex) DistanceProfiled(s, t int32, p *QueryProfile) int64 {
	return d.di.Distance(s, t, p)
}

// DistanceFromProfiled is DistanceFrom with merge profiling (see
// ProfiledOracle): the whole batch reads one published version.
func (d *DynamicIndex) DistanceFromProfiled(s int32, targets []int32, dst []int64, p *QueryProfile) []int64 {
	return d.di.DistanceFrom(s, targets, dst, p)
}
