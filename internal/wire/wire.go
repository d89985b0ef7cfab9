// Package wire is the part of the HTTP contract both serving tiers
// speak: the replica server (internal/server) and the scatter-gather
// coordinator (internal/cluster). It owns, once, the parsing of every
// request both tiers accept — /knn, /range, /nearest, /query and
// /batch — with its messages and check order, the typed response
// bodies, the replica's /healthz identity payload, and the JSON
// writers with their {"error": …} shape. A request the coordinator
// rejects therefore gets a replica's rejection byte for byte by
// construction.
//
// Every Parse method writes the 4xx answer itself and reports false,
// the way DecodeBody and CheckFanout do, so a handler only returns.
//
// The response types declare their fields in sorted key order, the
// order encoding/json writes a map in. A tier answering with a map
// of the same keys would send the same bytes.
//
// The hot /batch shapes skip reflection in both directions (fast.go):
// a strict scanner for the compact forms the serving traffic sends,
// with encoding/json on the same bytes for every other body, and
// append-style writers of encoding/json's exact bytes.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"pll/pll"
)

// WriteJSON writes v as the response body with a trailing newline.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers status with an {"error": …} body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteJSONBytes writes a pre-marshaled body (a cached response).
func WriteJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // nothing to do for a dead client
}

// MarshalResponse marshals v with the trailing newline WriteJSON
// writes, so a body cached from it is byte-identical to a fresh one.
func MarshalResponse(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FmtFloat renders a float the way Prometheus clients expect.
func FmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Limits are the caps a tier holds client input to. MaxBatch bounds
// every client-controlled fan-out: pairs per /batch, k per /knn and
// /nearest, members per /nearest set, results per /range and the
// clauses of a /query. MaxBody bounds every POST body in bytes.
type Limits struct {
	MaxBatch int
	MaxBody  int64
}

// DecodeBody reads a JSON request body under MaxBody, answering 413
// when it is oversized and 400 when it is malformed. A hostile
// Content-Length or an endless stream can therefore never force an
// unbounded read or allocation.
func (l Limits) DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, l.MaxBody)
	return decodeJSON(w, r.Body, v)
}

// decodeJSON decodes one JSON value from src into v, answering 413 when
// src failed with *http.MaxBytesError and 400 when the value is
// malformed.
func decodeJSON(w http.ResponseWriter, src io.Reader, v any) bool {
	if err := json.NewDecoder(src).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooBig.Limit)
		} else {
			WriteError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		}
		return false
	}
	return true
}

// firstRead caps readBody's first allocation: enough for a 1,024-target
// /batch body in one buffer, small next to MaxBody.
const firstRead = 64 << 10

// readBody reads the whole capped body into one buffer. The buffer
// starts at Content-Length, capped at MaxBody and firstRead, and grows
// only as bytes arrive, so a client that declares a large body and
// stalls pins at most firstRead+1 bytes. It returns the bytes read and
// the read's error, io.EOF excepted.
func (l Limits) readBody(r *http.Request) ([]byte, error) {
	size := int64(512) // io.ReadAll's first guess, for an unknown length
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, l.MaxBody, firstRead) + 1 // +1 so EOF needs no growth
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// errReader replays a body read's error after its bytes.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// CheckFanout answers 400 unless a client-controlled count is in
// [1, MaxBatch]. The coordinator checks before it scatters, so an
// oversized fan-out is shed once instead of amplified across the pool.
func (l Limits) CheckFanout(w http.ResponseWriter, name string, v int) bool {
	if v < 1 || v > l.MaxBatch {
		WriteError(w, http.StatusBadRequest, "%s=%d outside [1,%d]", name, v, l.MaxBatch)
		return false
	}
	return true
}

// queryInt parses one required integer query parameter of the given
// bit size, answering 400 when it is missing or malformed; what names
// the value in the malformed message.
func queryInt(w http.ResponseWriter, q url.Values, name, what string, bits int) (int64, bool) {
	raw := q.Get(name)
	if raw == "" {
		WriteError(w, http.StatusBadRequest, "missing query parameter %q", name)
		return 0, false
	}
	v, err := strconv.ParseInt(raw, 10, bits)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad %s %q", what, raw)
		return 0, false
	}
	return v, true
}

// queryInt32 parses one required int32 query parameter.
func queryInt32(w http.ResponseWriter, q url.Values, name string) (int32, bool) {
	v, ok := queryInt(w, q, name, name, 32)
	return int32(v), ok
}

// queryInt64 parses one required int64 query parameter (weighted radii
// can exceed int32).
func queryInt64(w http.ResponseWriter, q url.Values, name string) (int64, bool) {
	return queryInt(w, q, name, name, 64)
}

// ParsePair parses the s and t vertices of a /distance or /path query.
func ParsePair(w http.ResponseWriter, r *http.Request) (s, t int32, ok bool) {
	q := r.URL.Query()
	sv, ok := queryInt(w, q, "s", "vertex", 32)
	if !ok {
		return 0, 0, false
	}
	tv, ok := queryInt(w, q, "t", "vertex", 32)
	return int32(sv), int32(tv), ok
}

// KNNRequest is GET /knn?s=V&k=N: the k nearest vertices to s.
type KNNRequest struct {
	S, K int32
}

// ParseKNN parses a /knn query and checks k against MaxBatch.
func (l Limits) ParseKNN(w http.ResponseWriter, r *http.Request) (req KNNRequest, ok bool) {
	q := r.URL.Query()
	if req.S, ok = queryInt32(w, q, "s"); !ok {
		return req, false
	}
	if req.K, ok = queryInt32(w, q, "k"); !ok {
		return req, false
	}
	return req, l.CheckFanout(w, "k", int(req.K))
}

// RangeRequest is GET /range?s=V&r=D[&limit=N]: the vertices within
// distance Radius of S, nearest first, at most Limit of them.
type RangeRequest struct {
	S      int32
	Radius int64
	Limit  int // MaxBatch when the query names none
}

// ParseRange parses a /range query; the radius must be non-negative
// and an explicit limit must lie in [1, MaxBatch].
func (l Limits) ParseRange(w http.ResponseWriter, r *http.Request) (req RangeRequest, ok bool) {
	q := r.URL.Query()
	if req.S, ok = queryInt32(w, q, "s"); !ok {
		return req, false
	}
	if req.Radius, ok = queryInt64(w, q, "r"); !ok {
		return req, false
	}
	if req.Radius < 0 {
		WriteError(w, http.StatusBadRequest, "r=%d must be non-negative", req.Radius)
		return req, false
	}
	req.Limit = l.MaxBatch
	if q.Get("limit") == "" {
		return req, true
	}
	limit, ok := queryInt64(w, q, "limit")
	req.Limit = int(limit)
	return req, ok && l.CheckFanout(w, "limit", req.Limit)
}

// NearestRequest is a POST /nearest body: the K members of Set
// nearest to Source, e.g. {"source": 0, "set": [3, 17, 29], "k": 2}.
type NearestRequest struct {
	Source int32   `json:"source"`
	Set    []int32 `json:"set"`
	K      int     `json:"k"`
}

// ParseNearest decodes a /nearest body and checks the set size and k
// against MaxBatch.
func (l Limits) ParseNearest(w http.ResponseWriter, r *http.Request) (req NearestRequest, ok bool) {
	if !l.DecodeBody(w, r, &req) {
		return req, false
	}
	if len(req.Set) == 0 {
		WriteError(w, http.StatusBadRequest, `nearest body needs a non-empty "set"`)
		return req, false
	}
	return req, l.CheckFanout(w, "set size", len(req.Set)) && l.CheckFanout(w, "k", req.K)
}

// QueryRequest is a POST /query body: the composite request, validated
// and normalized, plus its canonical JSON. Requests that differ only in
// defaults ("by":"sum" or omitted, unsorted "in" members) share one
// canonical form, which keys a replica's result cache and is the body
// the coordinator forwards.
type QueryRequest struct {
	pll.CompositeRequest
	Canonical []byte
}

// ParseQuery decodes, validates and normalizes a /query body, then
// checks its clause fan-out and k against MaxBatch. Structural
// validation happens before any index is touched.
func (l Limits) ParseQuery(w http.ResponseWriter, r *http.Request) (req QueryRequest, ok bool) {
	if !l.DecodeBody(w, r, &req.CompositeRequest) {
		return req, false
	}
	if err := req.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return req, false
	}
	req.Normalize()
	if !l.CheckFanout(w, "constraint fan-out", req.Fanout()) {
		return req, false
	}
	if req.K > l.MaxBatch {
		WriteError(w, http.StatusBadRequest, "k=%d outside [0,%d]", req.K, l.MaxBatch)
		return req, false
	}
	canon, err := json.Marshal(&req.CompositeRequest)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return req, false
	}
	req.Canonical = canon
	return req, true
}

// BatchRequest is a POST /batch body: either explicit pairs, or one
// source against many targets.
type BatchRequest struct {
	Pairs   [][2]int32 `json:"pairs,omitempty"`
	Source  *int32     `json:"source,omitempty"`
	Targets []int32    `json:"targets,omitempty"`
}

// Len is the number of distances the batch asks for.
func (b *BatchRequest) Len() int { return len(b.Pairs) + len(b.Targets) }

// ParseBatch decodes a /batch body, which must hold exactly one of the
// two forms, and answers 413 when it asks for more than MaxBatch
// distances.
//
// It reads the capped body whole. A body the strict scanner accepts
// (fast.go) is decoded without reflection; any other, and any read that
// failed, goes to encoding/json over the bytes read followed by the
// read's error: the byte stream DecodeBody decodes, and so its every
// verdict and message.
func (l Limits) ParseBatch(w http.ResponseWriter, r *http.Request) (req BatchRequest, ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, l.MaxBody)
	body, err := l.readBody(r)
	if err == nil {
		if req, ok = scanBatchRequest(body); ok {
			return req, l.checkBatch(w, &req)
		}
	}
	src := io.Reader(bytes.NewReader(body))
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	if !decodeJSON(w, src, &req) {
		return req, false
	}
	return req, l.checkBatch(w, &req)
}

// checkBatch answers the 4xx of a decoded /batch body that is not
// exactly one form or asks for more than MaxBatch distances.
func (l Limits) checkBatch(w http.ResponseWriter, req *BatchRequest) bool {
	switch {
	case req.Source != nil && len(req.Targets) > 0 && len(req.Pairs) == 0:
	case req.Source == nil && len(req.Targets) == 0 && len(req.Pairs) > 0:
	default:
		WriteError(w, http.StatusBadRequest, `batch body needs either "pairs" or "source"+"targets"`)
		return false
	}
	if n := req.Len(); n > l.MaxBatch {
		WriteError(w, http.StatusRequestEntityTooLarge, "batch of %d pairs exceeds the %d limit", n, l.MaxBatch)
		return false
	}
	return true
}

// NeighborsOrEmpty keeps "neighbors" a JSON array even with no hits.
func NeighborsOrEmpty(ns []pll.Neighbor) []pll.Neighbor {
	if ns == nil {
		return []pll.Neighbor{}
	}
	return ns
}

// KNNResponse is the /knn answer. Incomplete is set only by the
// coordinator, when a shard could not answer.
type KNNResponse struct {
	Count      int            `json:"count"`
	Incomplete bool           `json:"incomplete,omitempty"`
	K          int32          `json:"k"`
	Neighbors  []pll.Neighbor `json:"neighbors"`
	S          int32          `json:"s"`
}

// RangeResponse is the /range answer: the first Count of the Total
// vertices within the radius. Total is a lower bound unless
// TotalExact, and Truncated says the limit cut the list.
type RangeResponse struct {
	Count      int            `json:"count"`
	Incomplete bool           `json:"incomplete,omitempty"`
	Neighbors  []pll.Neighbor `json:"neighbors"`
	Radius     int64          `json:"radius"`
	S          int32          `json:"s"`
	Total      int            `json:"total"`
	TotalExact bool           `json:"total_exact"`
	Truncated  bool           `json:"truncated"`
}

// NearestResponse is the /nearest answer; SetSize counts the distinct
// members of the request's set.
type NearestResponse struct {
	Count      int            `json:"count"`
	Incomplete bool           `json:"incomplete,omitempty"`
	K          int            `json:"k"`
	Neighbors  []pll.Neighbor `json:"neighbors"`
	SetSize    int            `json:"set_size"`
	Source     int32          `json:"source"`
}

// QueryResponse is the /query answer, with the Total/TotalExact/
// Truncated semantics of RangeResponse.
type QueryResponse struct {
	Count      int                  `json:"count"`
	Incomplete bool                 `json:"incomplete,omitempty"`
	Matches    []pll.CompositeMatch `json:"matches"`
	Total      int                  `json:"total"`
	TotalExact bool                 `json:"total_exact"`
	Truncated  bool                 `json:"truncated"`
}

// BatchResponse is the /batch answer: one distance per pair or target,
// in request order.
type BatchResponse struct {
	Count     int     `json:"count"`
	Distances []int64 `json:"distances"`
}

// Health is a replica's GET /healthz payload: which index it serves
// (variant, vertex count, content checksum) and which local generation
// it is on. The coordinator pools only replicas whose identity agrees.
type Health struct {
	Checksum   string `json:"checksum"`
	Generation uint64 `json:"generation"`
	Status     string `json:"status"`
	Variant    string `json:"variant"`
	Vertices   int    `json:"vertices"`
}
