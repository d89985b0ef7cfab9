package cluster

// Searches and /batch. Every usable backend holds the whole index (the
// health vote pools only replicas whose identity matches), so one
// replica answers a search whole: /knn, /range, /nearest and /query
// each go to the rendezvous owner of their forwarded path, query and
// body, fail over down the ranking past transport errors and 5xxs, and
// relay the first answer below 500 verbatim. A search is therefore a
// replica's own bytes or an error, never part of an answer. A 429 is
// final like any other answer below 500: walking past it would let a
// client that is rate-limited at one replica (keyed by the forwarded
// X-Client-Id) spend the other replicas' budgets. Searches do not
// hedge.
//
// /batch instead splits its pair list into contiguous chunks across the
// pool — the answer is positional, so the reduction is concatenation —
// which is what turns N replicas into N× batch throughput. Each chunk
// takes the same failover walk, from its own starting backend.
//
// Requests are parsed by the same internal/wire code the replicas run,
// so a rejection is the replica's, byte for byte. Parsing checks every
// client-controlled fan-out knob against MaxBatch before anything is
// forwarded.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"pll/internal/wire"
)

func (c *Coordinator) handleKNN(w http.ResponseWriter, r *http.Request) {
	req, ok := c.limits.ParseKNN(w, r)
	if !ok {
		return
	}
	c.search(w, r, http.MethodGet, fmt.Sprintf("/knn?s=%d&k=%d", req.S, req.K), nil)
}

func (c *Coordinator) handleRange(w http.ResponseWriter, r *http.Request) {
	req, ok := c.limits.ParseRange(w, r)
	if !ok {
		return
	}
	// The limit is forwarded explicitly: the replicas' default is their
	// own MaxBatch, which the deployment contract keeps equal to the
	// coordinator's, but an explicit value never depends on it.
	c.search(w, r, http.MethodGet, fmt.Sprintf("/range?s=%d&r=%d&limit=%d", req.S, req.Radius, req.Limit), nil)
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
	c.search(w, r, http.MethodPost, "/nearest", fwd)
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := c.limits.ParseQuery(w, r)
	if !ok {
		return
	}
	c.search(w, r, http.MethodPost, "/query", req.Canonical)
}

// search sends one search down the rendezvous ranking of its forwarded
// path, query and body, so a repeated search keeps reaching the same
// replica's result cache, and writes the final attempt.
func (c *Coordinator) search(w http.ResponseWriter, r *http.Request, method, pathQuery string, body []byte) {
	ranked := c.rank(hashName(pathQuery + string(body)))
	if len(ranked) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "no usable backends (%d configured)", len(c.backends))
		return
	}
	writeAttempt(w, c.failover(r, ranked, 0, method, pathQuery, body))
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
			pr := c.failover(r, usable, i, http.MethodPost, "/batch", body)
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
			writeAttempt(w, pr)
			return
		}
		distances = append(distances, results[i].distances...)
	}
	wire.WriteBatch(w, distances)
}

// failover sends one request to ranked[first] and, after a transport
// error or a 5xx, to each following backend in turn, wrapping around.
// The first answer below 500 is final; without one, the last failed
// attempt is returned.
func (c *Coordinator) failover(in *http.Request, ranked []*backend, first int, method, pathQuery string, body []byte) *proxyResult {
	var last *proxyResult
	for j := range ranked {
		b := ranked[(first+j)%len(ranked)]
		pr := func() *proxyResult {
			ctx, cancel := context.WithTimeout(in.Context(), c.cfg.RequestTimeout)
			defer cancel()
			return c.fetch(ctx, b, in, method, pathQuery, body, legAttempt)
		}()
		if pr.answered() {
			return pr
		}
		last = pr
	}
	return last
}

// writeAttempt writes a final attempt: the backend's response verbatim,
// or a 502 naming the transport error.
func writeAttempt(w http.ResponseWriter, pr *proxyResult) {
	if pr.err != nil {
		wire.WriteError(w, http.StatusBadGateway, "backend %s: %v", pr.b.host, pr.err)
		return
	}
	relay(w, pr)
}
