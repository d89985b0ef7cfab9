// Package wire is a request-parsing package for the handlerlimits
// fixture to import: its handlers hand their bodies to these decoders,
// and the analyzer must judge each by what its body here does, read
// with this package's own type information.
package wire

import (
	"encoding/json"
	"net/http"
)

// Limits are the caps a serving tier parses requests under.
type Limits struct {
	MaxBatch int
	MaxBody  int64
}

// BatchRequest carries a client-controlled fan-out.
type BatchRequest struct {
	Pairs [][2]int32 `json:"pairs"`
}

// decode caps the body, then decodes it. Its target is an `any`, so
// the decoded type shows only at its call sites.
func (l Limits) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, l.MaxBody)
	return json.NewDecoder(r.Body).Decode(v) == nil
}

// ParseCapped caps the body and bounds the decoded slice by MaxBatch.
func (l Limits) ParseCapped(w http.ResponseWriter, r *http.Request) (BatchRequest, bool) {
	var req BatchRequest
	if !l.decode(w, r, &req) {
		return req, false
	}
	return req, len(req.Pairs) <= l.MaxBatch
}

// ParseUncapped bounds the decoded slice but reads the body without
// http.MaxBytesReader.
func (l Limits) ParseUncapped(r *http.Request) (BatchRequest, bool) {
	var req BatchRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	return req, err == nil && len(req.Pairs) <= l.MaxBatch
}

// ParseNoFanout caps the body but never bounds the decoded slice.
func (l Limits) ParseNoFanout(w http.ResponseWriter, r *http.Request) (BatchRequest, bool) {
	var req BatchRequest
	return req, l.decode(w, r, &req)
}
