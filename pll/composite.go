package pll

// Composite-search capability: one request combining several distance
// constraints — "within d₁ of A and d₂ of B, not within d₃ of C, ranked
// by combined distance, top k" — answered by a streaming engine over
// the hub-inverted labels (internal/runquery) that pushes cutoffs into
// the label-run scans, orders constraints by estimated selectivity, and
// stops a ranked scan the moment the k-th best score is out of reach.
// No intermediate neighborhood is materialized.
//
// Like Batcher and Searcher, the capability is discovered by
// type-assertion:
//
//	if cs, ok := o.(pll.CompositeSearcher); ok {
//		res, _ := cs.Composite(&pll.CompositeRequest{
//			Where: &pll.CompositeClause{And: []*pll.CompositeClause{
//				{Near: &pll.NearClause{Source: a, MaxDist: 3}},
//				{Near: &pll.NearClause{Source: b, MaxDist: 4}},
//			}},
//			K: 10,
//		})
//	}
//
// The static forms (*Index, *DirectedIndex, *WeightedIndex and
// *FlatIndex) implement CompositeSearcher through their one shared
// implementation, and *ConcurrentOracle forwards to its snapshot;
// *DynamicIndex does not (a ConcurrentOracle wrapping one reports
// ErrNoSearch). Answers are
// deterministic — matches ordered by (score, vertex ID), unreachable-
// scored matches last — and identical across heap-loaded, memory-mapped
// and hot-swapped servings of the same index.

import "pll/internal/core"

// NearClause matches every vertex within MaxDist of Source, the source
// itself included (d(s,s) = 0) — note this differs from Searcher.KNN
// and Range, which exclude the source from their answers.
type NearClause = core.NearClause

// CompositeClause is one constraint-tree node; exactly one field (near,
// and, or, not, in) must be set. See CompositeRequest.Validate for the
// structural rules.
type CompositeClause = core.CompositeClause

// CompositeTerm is one ranking term: the distance from Source scaled by
// Weight.
type CompositeTerm = core.CompositeTerm

// CompositeRank selects the ranking expression ("sum" or "max" of the
// weighted term distances).
type CompositeRank = core.CompositeRank

// CompositeRequest is a full composite query; see the package-level
// example. Validate checks structure without an index; Normalize fills
// defaults in place.
type CompositeRequest = core.CompositeRequest

// CompositeMatch is one composite answer with its per-term distances.
type CompositeMatch = core.CompositeMatch

// CompositeResult is a composite answer set; Total counts matches
// before the K trim and is exact iff Exact is set.
type CompositeResult = core.CompositeResult

// CompositeSearcher answers multi-constraint queries over the labels.
// Implementations are safe for concurrent use.
type CompositeSearcher interface {
	Composite(req *CompositeRequest) (*CompositeResult, error)
}

// Composite answers a multi-constraint query on the current snapshot
// (see CompositeSearcher); ErrNoSearch if the snapshot cannot search.
func (c *ConcurrentOracle) Composite(req *CompositeRequest) (*CompositeResult, error) {
	var out *CompositeResult
	err := c.View(func(o Oracle) error {
		cs, ok := o.(CompositeSearcher)
		if !ok {
			return ErrNoSearch
		}
		var err error
		out, err = cs.Composite(req)
		return err
	})
	return out, err
}
