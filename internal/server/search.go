package server

// Search endpoints over the Searcher capability: /knn, /range and
// /nearest answer neighborhood queries straight from the served
// index's inverted labels. Every fan-out knob a client controls — k,
// the range result count, the POI set size — is capped by
// Config.MaxBatch, and /nearest bodies by Config.MaxBody, so hostile
// requests fail fast with a 4xx instead of forcing unbounded work.

import (
	"errors"
	"net/http"

	"pll/internal/trace"
	"pll/internal/wire"
	"pll/pll"
)

// searchView runs f against the current snapshot's Searcher, mapping
// the standard failure modes: 400 for bad vertices or sets, 409 when
// the served index cannot search (a live dynamic index).
func (s *Server) searchView(w http.ResponseWriter, src int32, f func(sr pll.Searcher) error) bool {
	var badInput bool
	err := s.oracle.View(func(o pll.Oracle) error {
		if err := pll.Validate(o, src); err != nil {
			badInput = true
			return err
		}
		sr, ok := o.(pll.Searcher)
		if !ok {
			return pll.ErrNoSearch
		}
		return f(sr)
	})
	switch {
	case err == nil:
		s.searches.Add(1)
		return true
	case badInput:
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, pll.ErrNoSearch):
		// Deliberately no Stats() call here: naming the variant would
		// scan the whole dynamic index on every rejected request.
		wire.WriteError(w, http.StatusConflict, "served index does not support search queries (a live dynamic index cannot be inverted; serve a frozen snapshot)")
	default:
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
	}
	return false
}

// handleKNN answers GET /knn?s=V&k=N: the k nearest vertices to s,
// sorted by (distance, vertex), ties at the cutoff resolved to the
// smallest IDs.
func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	req, ok := s.limits.ParseKNN(w, r)
	if !ok {
		return
	}
	// kNN answers are deterministic for a fixed index, so the marshaled
	// response is cached whole, keyed by the canonical (s, k) pair;
	// /update and /reload purge it.
	p := trace.ProfileFromContext(r.Context())
	key := queryCacheKeyKNN(req.S, req.K)
	if body, ok := s.results.get(key, &s.knnTally); ok {
		p.CacheLookup(true)
		s.searches.Add(1)
		wire.WriteJSONBytes(w, http.StatusOK, body)
		return
	}
	p.CacheLookup(false)
	epoch := s.results.currentEpoch()
	var res []pll.Neighbor
	if !s.searchView(w, req.S, func(sr pll.Searcher) error {
		var err error
		if sp, ok := sr.(pll.SearchProfiler); ok {
			res, err = sp.KNNProfiled(req.S, int(req.K), p)
		} else {
			res, err = sr.KNN(req.S, int(req.K))
		}
		return err
	}) {
		return
	}
	body, err := wire.MarshalResponse(wire.KNNResponse{
		Count:     len(res),
		K:         req.K,
		Neighbors: wire.NeighborsOrEmpty(res),
		S:         req.S,
	})
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.results.put(epoch, key, body)
	wire.WriteJSONBytes(w, http.StatusOK, body)
}

// handleRange answers GET /range?s=V&r=D[&limit=N]: every vertex
// within distance r of s, nearest first, truncated to limit (default
// and maximum: MaxBatch) with a "truncated" marker and a "total"
// within-radius count ("total_exact" says whether the scan completed
// or total is only a lower bound).
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	req, ok := s.limits.ParseRange(w, r)
	if !ok {
		return
	}
	// Answer through KNN(limit+1) rather than Range: results sort by
	// (distance, vertex), so the within-radius vertices are exactly a
	// prefix — cutting at the radius yields the first `limit` of the
	// full range answer plus an exact truncation marker, while the
	// top-k pruning keeps the work bounded by the limit instead of by
	// however many vertices a hostile radius covers.
	p := trace.ProfileFromContext(r.Context())
	var res []pll.Neighbor
	if !s.searchView(w, req.S, func(sr pll.Searcher) error {
		var got []pll.Neighbor
		var err error
		if sp, ok := sr.(pll.SearchProfiler); ok {
			got, err = sp.KNNProfiled(req.S, req.Limit+1, p)
		} else {
			got, err = sr.KNN(req.S, req.Limit+1)
		}
		if err != nil {
			return err
		}
		for _, nb := range got {
			if nb.Distance > req.Radius {
				break
			}
			res = append(res, nb)
		}
		return nil
	}) {
		return
	}
	// total counts the within-radius vertices before the limit cut: when
	// the scan completed (fewer than limit+1 hits inside the radius) it
	// is exact; when truncated, limit+1 hits were seen, so total is a
	// lower bound and total_exact is false.
	total := len(res)
	truncated := false
	if len(res) > req.Limit {
		res = res[:req.Limit]
		truncated = true
	}
	wire.WriteJSON(w, http.StatusOK, wire.RangeResponse{
		Count:      len(res),
		Neighbors:  wire.NeighborsOrEmpty(res),
		Radius:     req.Radius,
		S:          req.S,
		Total:      total,
		TotalExact: !truncated,
		Truncated:  truncated,
	})
}

// handleNearest answers POST /nearest: the k members of a vertex set
// nearest to source. The set is registered per request against the
// current snapshot; clients with a stable POI list and an embedded
// oracle should register once with NewVertexSet instead.
func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) {
	req, ok := s.limits.ParseNearest(w, r)
	if !ok {
		return
	}
	var res []pll.Neighbor
	var size int
	if !s.searchView(w, req.Source, func(sr pll.Searcher) error {
		set, err := sr.NewVertexSet(req.Set)
		if err != nil {
			return err
		}
		size = set.Size()
		res, err = sr.NearestIn(req.Source, set, req.K)
		return err
	}) {
		return
	}
	wire.WriteJSON(w, http.StatusOK, wire.NearestResponse{
		Count:     len(res),
		K:         req.K,
		Neighbors: wire.NeighborsOrEmpty(res),
		SetSize:   size,
		Source:    req.Source,
	})
}
