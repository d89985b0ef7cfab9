package server

// POST /query: the composite-search endpoint. One request combines
// several distance constraints (near/and/or/not/in) with optional
// combined-distance ranking and a top-k cut, answered through the
// CompositeSearcher capability — the streaming engine over the inverted
// labels, no intermediate neighborhood materialized. The request body
// is the pll.CompositeRequest JSON shape verbatim:
//
//	{"where": {"and": [{"near": {"source": 3, "max_dist": 4}},
//	                   {"near": {"source": 9, "max_dist": 2}}]},
//	 "rank": {"by": "sum", "terms": [{"source": 3, "weight": 2}]},
//	 "k": 10}
//
// Structural validation (wire.ParseQuery) happens before the oracle is
// touched, so a hostile body fails with 400 without pinning a snapshot,
// and the clause fan-out (near and in leaves plus ranking terms) is
// capped by Config.MaxBatch like every other client-controlled knob.

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"pll/internal/trace"
	"pll/internal/wire"
	"pll/pll"
)

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.limits.ParseQuery(w, r)
	if !ok {
		return
	}
	p := trace.ProfileFromContext(r.Context())
	key := "query:" + string(req.Canonical)
	if body, ok := s.results.get(key, &s.queryTally); ok {
		p.CacheLookup(true)
		s.composites.Add(1)
		wire.WriteJSONBytes(w, http.StatusOK, body)
		return
	}
	p.CacheLookup(false)
	epoch := s.results.currentEpoch()
	var res *pll.CompositeResult
	queryStart := time.Now()
	err := s.oracle.View(func(o pll.Oracle) error {
		cs, ok := o.(pll.CompositeSearcher)
		if !ok {
			return pll.ErrNoSearch
		}
		var err error
		res, err = cs.Composite(&req.CompositeRequest)
		return err
	})
	if err == nil && p != nil {
		// The engine reports how many label entries its hub-run scans
		// advanced; the run count is folded into the entry total.
		p.AddScan(0, res.Scanned, time.Since(queryStart))
	}
	if err != nil {
		if errors.Is(err, pll.ErrNoSearch) {
			wire.WriteError(w, http.StatusConflict, "served index does not support composite queries (a live dynamic index cannot be inverted; serve a frozen snapshot)")
		} else {
			// Remaining failures are request-shaped: vertices out of range
			// for the served index.
			wire.WriteError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	// K is capped by ParseQuery, so only an untrimmed (k=0) answer can
	// exceed MaxBatch; cut it like /range does rather than ship an
	// unbounded response.
	matches := res.Matches
	truncated := false
	if len(matches) > s.cfg.MaxBatch {
		matches = matches[:s.cfg.MaxBatch]
		truncated = true
	}
	if matches == nil {
		matches = []pll.CompositeMatch{}
	}
	body, err := wire.MarshalResponse(wire.QueryResponse{
		Count:      len(matches),
		Matches:    matches,
		Total:      res.Total,
		TotalExact: res.Exact,
		Truncated:  truncated,
	})
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.results.put(epoch, key, body)
	s.composites.Add(1)
	wire.WriteJSONBytes(w, http.StatusOK, body)
}

// queryCacheKeyKNN canonicalizes a /knn request for the result cache.
func queryCacheKeyKNN(s int32, k int32) string {
	return fmt.Sprintf("knn:s=%d&k=%d", s, k)
}
