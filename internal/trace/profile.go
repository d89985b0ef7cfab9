package trace

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// QueryProfile accumulates the cheap per-stage counters of one
// request: admission wait, cache hit/miss, label-merge mass and
// duration in the distance engines, hub-run scan counts in the search
// engines. Fields are atomic because /batch chunks and hedge attempts
// record from their own goroutines.
//
// Every method is safe on a nil receiver and does nothing — the
// engines call them unconditionally behind a single `p != nil` check
// at the capability boundary, so the untraced path stays allocation-
// free and branch-cheap.
//
// A profile is request-scoped: it travels in the request context and
// must not be stored past the handler's return (the pllvet
// profilescope analyzer enforces this).
type QueryProfile struct {
	admissionNs  atomic.Int64
	cacheLookups atomic.Int64
	cacheHits    atomic.Int64
	mergeCalls   atomic.Int64
	mergeEntries atomic.Int64
	mergeNs      atomic.Int64
	scanRuns     atomic.Int64
	scanItems    atomic.Int64
	scanNs       atomic.Int64
}

// AddAdmissionWait records time spent in the admission layer.
func (p *QueryProfile) AddAdmissionWait(d time.Duration) {
	if p == nil {
		return
	}
	p.admissionNs.Add(int64(d))
}

// CacheLookup records one cache probe and its outcome.
func (p *QueryProfile) CacheLookup(hit bool) {
	if p == nil {
		return
	}
	p.cacheLookups.Add(1)
	if hit {
		p.cacheHits.Add(1)
	}
}

// AddMerge records one label-merge engine call: how many label entries
// it merged and how long it ran.
func (p *QueryProfile) AddMerge(entries int64, d time.Duration) {
	if p == nil {
		return
	}
	p.mergeCalls.Add(1)
	p.mergeEntries.Add(entries)
	p.mergeNs.Add(int64(d))
}

// AddScan records one hub-run scan: runs seeded into the merge, items
// advanced, and the scan duration.
func (p *QueryProfile) AddScan(runs, items int64, d time.Duration) {
	if p == nil {
		return
	}
	p.scanRuns.Add(runs)
	p.scanItems.Add(items)
	p.scanNs.Add(int64(d))
}

// ProfileSnapshot is a point-in-time copy of a profile's counters.
type ProfileSnapshot struct {
	AdmissionNs  int64
	CacheLookups int64
	CacheHits    int64
	MergeCalls   int64
	MergeEntries int64
	MergeNs      int64
	ScanRuns     int64
	ScanItems    int64
	ScanNs       int64
}

// Snapshot copies the counters; nil on a nil profile.
func (p *QueryProfile) Snapshot() *ProfileSnapshot {
	if p == nil {
		return nil
	}
	return &ProfileSnapshot{
		AdmissionNs:  p.admissionNs.Load(),
		CacheLookups: p.cacheLookups.Load(),
		CacheHits:    p.cacheHits.Load(),
		MergeCalls:   p.mergeCalls.Load(),
		MergeEntries: p.mergeEntries.Load(),
		MergeNs:      p.mergeNs.Load(),
		ScanRuns:     p.scanRuns.Load(),
		ScanItems:    p.scanItems.Load(),
		ScanNs:       p.scanNs.Load(),
	}
}

// LogAttrs renders the nonzero stages for the slow-query log; nil
// profiles contribute nothing.
func (p *QueryProfile) LogAttrs() []slog.Attr {
	s := p.Snapshot()
	if s == nil {
		return nil
	}
	var out []slog.Attr
	if s.AdmissionNs > 0 {
		out = append(out, slog.Duration("admission_wait", time.Duration(s.AdmissionNs)))
	}
	if s.CacheLookups > 0 {
		out = append(out,
			slog.Int64("cache_lookups", s.CacheLookups),
			slog.Int64("cache_hits", s.CacheHits))
	}
	if s.MergeCalls > 0 {
		out = append(out,
			slog.Int64("merge_calls", s.MergeCalls),
			slog.Int64("merge_entries", s.MergeEntries),
			slog.Duration("merge_time", time.Duration(s.MergeNs)))
	}
	if s.ScanRuns > 0 || s.ScanItems > 0 {
		out = append(out,
			slog.Int64("scan_runs", s.ScanRuns),
			slog.Int64("scan_items", s.ScanItems),
			slog.Duration("scan_time", time.Duration(s.ScanNs)))
	}
	return out
}

// ctxKey keys the *Request in a request context.
type ctxKey struct{}

// NewContext returns ctx carrying the request's tracing state.
func NewContext(ctx context.Context, req *Request) context.Context {
	return context.WithValue(ctx, ctxKey{}, req)
}

// FromContext returns the request's tracing state, nil when the
// request is not traced (every Request method no-ops on nil).
func FromContext(ctx context.Context) *Request {
	req, _ := ctx.Value(ctxKey{}).(*Request)
	return req
}

// ProfileFromContext returns the request's stage-timer sink, nil when
// absent (every QueryProfile method no-ops on nil).
func ProfileFromContext(ctx context.Context) *QueryProfile {
	return FromContext(ctx).Profile()
}
