package cluster

// Fan-out endpoints. /knn, /range, /nearest and /query scatter to
// every shard of the logical index and reduce the per-shard top-k
// answers with the same (distance, vertex) merge ordering the replicas
// themselves use (internal/hubsearch), so a complete merged response
// is byte-identical to asking one replica directly. /batch instead
// splits its pair list into contiguous chunks across the pool — the
// answer is positional, so the reduction is concatenation — which is
// what turns N replicas into N× batch throughput.
//
// Partial failure is explicit, not silent: a scatter that could not
// get a 200 from every shard (unreachable, erroring, or shedding load
// with a 429) still answers, with "incomplete": true added to the
// response, and the degradation is counted on /metrics.
//
// Requests are parsed by the same internal/wire code the replicas run,
// so a rejection is the replica's, byte for byte. Parsing checks every
// client-controlled fan-out knob against MaxBatch BEFORE any scatter,
// so an oversized request is shed at the coordinator instead of
// amplified across the pool. The merged answers are the wire response
// types, which the shard bodies are decoded into as well.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"pll/internal/wire"
	"pll/pll"
)

// scatterAll sends one request to every usable backend concurrently
// and returns the completed attempts in backend order.
func (c *Coordinator) scatterAll(in *http.Request, method, pathQuery string, body []byte) []*proxyResult {
	usable := c.usable()
	results := make([]*proxyResult, len(usable))
	var wg sync.WaitGroup
	for i, b := range usable {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(in.Context(), c.cfg.RequestTimeout)
			defer cancel()
			results[i] = c.fetch(ctx, b, in, method, pathQuery, body, legAttempt)
		}(i, b)
	}
	wg.Wait()
	return results
}

// collectScatter sorts the shard replies: 200s are returned for
// merging; a 4xx verdict about the request itself (bad request, 409
// capability conflict) is relayed verbatim — every replica of one
// index gives the same verdict, so the first one speaks for the pool.
// A 429 is NOT such a verdict: admission rejection is one replica's
// momentary load, so a shedding shard degrades the scatter like an
// unreachable one, and the 429 (Retry-After intact) is relayed only
// when no shard returned 200 at all. done reports that a response has
// already been written. incomplete is measured against the poolable
// backend count — an unreachable shard is a missing shard, whether it
// failed just now or has been down for an hour.
func (c *Coordinator) collectScatter(w http.ResponseWriter, replies []*proxyResult) (oks []*proxyResult, incomplete bool, done bool) {
	var fail, shed *proxyResult
	for _, pr := range replies {
		switch {
		case pr.err == nil && pr.status == http.StatusOK:
			oks = append(oks, pr)
		case pr.err == nil && pr.status == http.StatusTooManyRequests:
			if shed == nil {
				shed = pr
			}
		case pr.err == nil && pr.status < http.StatusInternalServerError:
			relay(w, pr)
			return nil, false, true
		default:
			if fail == nil {
				fail = pr
			}
		}
	}
	if len(oks) == 0 {
		switch {
		case shed != nil:
			relay(w, shed)
		case fail == nil:
			wire.WriteError(w, http.StatusServiceUnavailable, "no usable backends (%d configured)", len(c.backends))
		case fail.err != nil:
			wire.WriteError(w, http.StatusBadGateway, "backend %s: %v", fail.b.host, fail.err)
		default:
			relay(w, fail)
		}
		return nil, false, true
	}
	c.scatters.Add(1)
	if incomplete = len(oks) < len(c.poolable()); incomplete {
		c.incomplete.Add(1)
	}
	return oks, incomplete, false
}

// decodeShard unmarshals one 200 shard body. A 200 with an undecodable
// body is a protocol violation, answered 502, not a partial failure.
func decodeShard[T any](w http.ResponseWriter, pr *proxyResult, v *T) bool {
	if err := json.Unmarshal(pr.body, v); err != nil {
		wire.WriteError(w, http.StatusBadGateway, "backend %s: bad response: %v", pr.b.host, err)
		return false
	}
	return true
}

func (c *Coordinator) handleKNN(w http.ResponseWriter, r *http.Request) {
	req, ok := c.limits.ParseKNN(w, r)
	if !ok {
		return
	}
	replies := c.scatterAll(r, http.MethodGet, fmt.Sprintf("/knn?s=%d&k=%d", req.S, req.K), nil)
	oks, incomplete, done := c.collectScatter(w, replies)
	if done {
		return
	}
	shards := make([][]pll.Neighbor, 0, len(oks))
	for _, pr := range oks {
		var sr wire.KNNResponse
		if !decodeShard(w, pr, &sr) {
			return
		}
		shards = append(shards, sr.Neighbors)
	}
	merged := mergeNeighbors(shards, int(req.K))
	wire.WriteJSON(w, http.StatusOK, wire.KNNResponse{
		Count:      len(merged),
		Incomplete: incomplete,
		K:          req.K,
		Neighbors:  wire.NeighborsOrEmpty(merged),
		S:          req.S,
	})
}

func (c *Coordinator) handleRange(w http.ResponseWriter, r *http.Request) {
	req, ok := c.limits.ParseRange(w, r)
	if !ok {
		return
	}
	// The limit is forwarded explicitly: the replicas' default is their
	// own MaxBatch, which the deployment contract keeps equal to the
	// coordinator's, but an explicit value never depends on it.
	replies := c.scatterAll(r, http.MethodGet, fmt.Sprintf("/range?s=%d&r=%d&limit=%d", req.S, req.Radius, req.Limit), nil)
	oks, incomplete, done := c.collectScatter(w, replies)
	if done {
		return
	}
	shards := make([][]pll.Neighbor, 0, len(oks))
	total, totalExact, truncated := 0, true, false
	for _, pr := range oks {
		var sr wire.RangeResponse
		if !decodeShard(w, pr, &sr) {
			return
		}
		shards = append(shards, sr.Neighbors)
		// total is exact on a single node; across shards each reports a
		// count over its own slice of the index, so the merged total is
		// the best lower bound we have (max) and stays exact only when
		// every shard's was.
		total = max(total, sr.Total)
		totalExact = totalExact && sr.TotalExact
		truncated = truncated || sr.Truncated
	}
	merged := mergeNeighbors(shards, -1)
	if len(merged) > req.Limit {
		merged = merged[:req.Limit]
		truncated = true
	}
	wire.WriteJSON(w, http.StatusOK, wire.RangeResponse{
		Count:      len(merged),
		Incomplete: incomplete,
		Neighbors:  wire.NeighborsOrEmpty(merged),
		Radius:     req.Radius,
		S:          req.S,
		Total:      max(total, len(merged)),
		TotalExact: totalExact,
		Truncated:  truncated,
	})
}

func (c *Coordinator) handleNearest(w http.ResponseWriter, r *http.Request) {
	req, ok := c.limits.ParseNearest(w, r)
	if !ok {
		return
	}
	fwd, err := json.Marshal(&req)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	replies := c.scatterAll(r, http.MethodPost, "/nearest", fwd)
	oks, incomplete, done := c.collectScatter(w, replies)
	if done {
		return
	}
	shards := make([][]pll.Neighbor, 0, len(oks))
	setSize := 0
	for _, pr := range oks {
		var sr wire.NearestResponse
		if !decodeShard(w, pr, &sr) {
			return
		}
		shards = append(shards, sr.Neighbors)
		setSize = max(setSize, sr.SetSize)
	}
	merged := mergeNeighbors(shards, req.K)
	wire.WriteJSON(w, http.StatusOK, wire.NearestResponse{
		Count:      len(merged),
		Incomplete: incomplete,
		K:          req.K,
		Neighbors:  wire.NeighborsOrEmpty(merged),
		SetSize:    setSize,
		Source:     req.Source,
	})
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := c.limits.ParseQuery(w, r)
	if !ok {
		return
	}
	replies := c.scatterAll(r, http.MethodPost, "/query", req.Canonical)
	oks, incomplete, done := c.collectScatter(w, replies)
	if done {
		return
	}
	shards := make([][]pll.CompositeMatch, 0, len(oks))
	total, totalExact, truncated := 0, true, false
	for _, pr := range oks {
		var sr wire.QueryResponse
		if !decodeShard(w, pr, &sr) {
			return
		}
		shards = append(shards, sr.Matches)
		total = max(total, sr.Total)
		totalExact = totalExact && sr.TotalExact
		truncated = truncated || sr.Truncated
	}
	merged := mergeMatches(shards, req.K)
	if len(merged) > c.cfg.MaxBatch {
		merged = merged[:c.cfg.MaxBatch]
		truncated = true
	}
	if merged == nil {
		merged = []pll.CompositeMatch{}
	}
	wire.WriteJSON(w, http.StatusOK, wire.QueryResponse{
		Count:      len(merged),
		Incomplete: incomplete,
		Matches:    merged,
		Total:      max(total, len(merged)),
		TotalExact: totalExact,
		Truncated:  truncated,
	})
}

// handleBatch splits the (validated, capped) pair list into contiguous
// chunks, one per usable backend, and reassembles the distances in
// order — the response is byte-identical to a single node's while each
// replica scans only 1/N of the pairs. A chunk whose backend fails
// retries on the rest of the pool; the batch only fails when a chunk
// exhausts every backend (positional answers cannot be served
// partially).
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := c.limits.ParseBatch(w, r)
	if !ok {
		return
	}
	usable := c.usable()
	if len(usable) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "no usable backends (%d configured)", len(c.backends))
		return
	}

	n := req.Len()
	chunks := min(len(usable), n)
	type chunkResult struct {
		distances []int64
		fail      *proxyResult
	}
	results := make([]chunkResult, chunks)
	var wg sync.WaitGroup
	for i := 0; i < chunks; i++ {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		sub := wire.BatchRequest{Source: req.Source}
		if req.Source != nil {
			sub.Targets = req.Targets[lo:hi]
		} else {
			sub.Pairs = req.Pairs[lo:hi]
		}
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			results[i] = chunkResult{}
			pr := c.batchChunk(r, usable, i, body)
			if pr.err != nil || pr.status != http.StatusOK {
				results[i].fail = pr
				return
			}
			sr, err := wire.DecodeBatchResponse(pr.body)
			if err == nil && len(sr.Distances) != hi-lo {
				err = fmt.Errorf("%d distances for a chunk of %d", len(sr.Distances), hi-lo)
			}
			if err != nil {
				results[i].fail = &proxyResult{b: pr.b, err: fmt.Errorf("bad response: %w", err)}
				return
			}
			results[i].distances = sr.Distances
		}(i, sub.AppendJSON(make([]byte, 0, 32+12*(hi-lo))))
	}
	wg.Wait()

	distances := make([]int64, 0, n)
	for i := range results {
		if pr := results[i].fail; pr != nil {
			if pr.err != nil {
				wire.WriteError(w, http.StatusBadGateway, "backend %s: %v", pr.b.host, pr.err)
			} else {
				relay(w, pr)
			}
			return
		}
		distances = append(distances, results[i].distances...)
	}
	wire.WriteBatch(w, distances)
}

// batchChunk posts one chunk, starting at the backend the chunk was
// assigned to and failing over through the rest of the usable pool. A
// sub-500 response is final (200 to merge, 4xx to relay); transport
// errors and 5xxs keep walking.
func (c *Coordinator) batchChunk(in *http.Request, usable []*backend, first int, body []byte) *proxyResult {
	var last *proxyResult
	for j := range usable {
		b := usable[(first+j)%len(usable)]
		pr := func() *proxyResult {
			ctx, cancel := context.WithTimeout(in.Context(), c.cfg.RequestTimeout)
			defer cancel()
			return c.fetch(ctx, b, in, http.MethodPost, "/batch", body, legAttempt)
		}()
		if pr.answered() {
			return pr
		}
		last = pr
	}
	return last
}
