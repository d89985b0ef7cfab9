package wire

// The /batch fast path. encoding/json spends about 300 µs of reflection
// decoding one 1,024-target /batch body; the loops here take a few tens.
// They accept only the compact shapes the serving traffic sends, and
// only where encoding/json is certain to decode them to an equal value:
//
//   - a request of exactly {"source":N,"targets":[N,…]}, the form
//     perfbench, examples/loadtest and the coordinator's source+targets
//     chunks all write;
//   - a replica answer of exactly the bytes WriteBatch writes,
//     {"count":N,"distances":[N,…]} and a newline.
//
// Integers must match -?(0|[1-9][0-9]*) within the field's type. Any
// other body (whitespace, another key order, the pairs form, an escape,
// a fraction, an exponent, a leading zero, an overflow, null, an empty
// array, trailing data) is declined, and the caller decodes the same
// bytes with encoding/json, so every status and message stays
// encoding/json's own. A fuzz target checks the accept side against
// encoding/json.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
)

// scanner walks one compact JSON body.
type scanner struct {
	b []byte
	i int
}

// lit consumes the bytes of tok.
func (s *scanner) lit(tok string) bool {
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// eat consumes the byte c.
func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// int consumes an integer within [lo, hi].
func (s *scanner) int(lo, hi int64) (int64, bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var mag uint64 // 19 digits cannot overflow it
	for i < len(b) && i-start < 19 && b[i] >= '0' && b[i] <= '9' {
		mag = mag*10 + uint64(b[i]-'0')
		i++
	}
	if i == start || (i-start > 1 && b[start] == '0') {
		return 0, false
	}
	// A 20th digit, a fraction or an exponent: not an integer this loop
	// can vouch for.
	if i < len(b) && (b[i] >= '0' && b[i] <= '9' || b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	var v int64
	switch {
	case neg && mag <= 1<<63:
		v = -int64(mag) // 1<<63 wraps to MinInt64, which negation keeps
	case !neg && mag <= math.MaxInt64:
		v = int64(mag)
	default:
		return 0, false
	}
	if v < lo || v > hi {
		return 0, false
	}
	s.i = i
	return v, true
}

// ints consumes a non-empty array of integers within [lo, hi], sized
// once from the commas left in the body.
func ints[T int32 | int64](s *scanner, lo, hi int64) ([]T, bool) {
	if !s.eat('[') {
		return nil, false
	}
	out := make([]T, 0, bytes.Count(s.b[s.i:], []byte{','})+1)
	for {
		v, ok := s.int(lo, hi)
		if !ok {
			return nil, false
		}
		out = append(out, T(v))
		if !s.eat(',') {
			return out, s.eat(']')
		}
	}
}

// scanBatchRequest decodes a /batch body of exactly the compact
// {"source":N,"targets":[N,…]} form and reports false for any other.
func scanBatchRequest(b []byte) (BatchRequest, bool) {
	s := scanner{b: b}
	if !s.lit(`{"source":`) {
		return BatchRequest{}, false
	}
	src, ok := s.int(math.MinInt32, math.MaxInt32)
	if !ok || !s.lit(`,"targets":`) {
		return BatchRequest{}, false
	}
	targets, ok := ints[int32](&s, math.MinInt32, math.MaxInt32)
	if !ok || !s.eat('}') || s.i != len(b) {
		return BatchRequest{}, false
	}
	source := int32(src)
	return BatchRequest{Source: &source, Targets: targets}, true
}

// scanBatchResponse decodes a replica's /batch answer of exactly the
// bytes WriteBatch writes and reports false for any other.
func scanBatchResponse(b []byte) (BatchResponse, bool) {
	s := scanner{b: b}
	if !s.lit(`{"count":`) {
		return BatchResponse{}, false
	}
	count, ok := s.int(math.MinInt, math.MaxInt)
	if !ok || !s.lit(`,"distances":`) {
		return BatchResponse{}, false
	}
	distances, ok := ints[int64](&s, math.MinInt64, math.MaxInt64)
	if !ok || !s.lit("}\n") || s.i != len(b) {
		return BatchResponse{}, false
	}
	return BatchResponse{Count: int(count), Distances: distances}, true
}

// DecodeBatchResponse decodes a replica's /batch answer: by the strict
// scanner, or by json.Unmarshal with its own error when the scanner
// declines.
func DecodeBatchResponse(body []byte) (BatchResponse, error) {
	if resp, ok := scanBatchResponse(body); ok {
		return resp, nil
	}
	var resp BatchResponse
	err := json.Unmarshal(body, &resp)
	return resp, err
}

// AppendJSON appends the bytes json.Marshal writes for b: the
// coordinator's chunk bodies, without reflection.
func (b *BatchRequest) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	first := true
	member := func(key string) {
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, key...)
	}
	if len(b.Pairs) > 0 {
		member(`"pairs":[`)
		for i, p := range b.Pairs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, int64(p[0]), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(p[1]), 10)
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if b.Source != nil {
		member(`"source":`)
		dst = strconv.AppendInt(dst, int64(*b.Source), 10)
	}
	if len(b.Targets) > 0 {
		member(`"targets":[`)
		for i, t := range b.Targets {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(t), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendBatchResponse appends the bytes WriteJSON writes for
// BatchResponse{Count: len(distances), Distances: distances}, the
// trailing newline included.
func appendBatchResponse(dst []byte, distances []int64) []byte {
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(len(distances)), 10)
	if distances == nil {
		return append(dst, ",\"distances\":null}\n"...)
	}
	dst = append(dst, `,"distances":[`...)
	for i, d := range distances {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, d, 10)
	}
	return append(dst, "]}\n"...)
}

// WriteBatch answers 200 with the /batch body for distances, byte for
// byte what WriteJSON writes for the BatchResponse, in one Write.
func WriteBatch(w http.ResponseWriter, distances []int64) {
	WriteJSONBytes(w, http.StatusOK, appendBatchResponse(make([]byte, 0, 32+4*len(distances)), distances))
}
