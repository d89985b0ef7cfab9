package core

// Single-source batch distances: DistanceFrom(s, targets, dst) answers
// |targets| queries sharing the source s with the source-side label
// expanded into a rank-indexed array once (the §4.5 "Querying"
// technique the paper uses during construction), so each target costs
// one scan of its own label instead of a full merge join — the §4
// merge-join amortization for the paper's one-to-many workloads
// (socially-sensitive search, context-aware ranking). The same pinned
// source answers the composite engine's point probes (composite.go).
//
// Every index implements the same contract:
//
//   - dst is reused when its capacity suffices, and the returned slice
//     has len(targets), dst[i] = d(s, targets[i]).
//   - Distances follow the Oracle convention: int64, Unreachable (-1)
//     for disconnected pairs.
//   - Out-of-range vertices panic, mirroring Query; validate first.
//
// Scratch arrays (O(n) each) are recycled through per-index sync.Pools,
// so concurrent batches on immutable indexes are safe and allocation-
// free in steady state.

import (
	"sync"
	"time"

	"pll/internal/runquery"
	"pll/internal/trace"
)

// ensureI64 returns dst resized to n entries, reusing its capacity.
func ensureI64(dst []int64, n int) []int64 {
	if cap(dst) < n {
		return make([]int64, n)
	}
	return dst[:n]
}

// sourceScratch is the pinned source of one batch: t[w] is the
// source's distance to hub rank w, or inf when w is not in its label.
// loaded lists the set entries for an O(|L(s)|) reset.
type sourceScratch[D dist] struct {
	t      []D
	loaded []int32
}

// getSourceScratch takes an all-inf scratch for n vertices from pool.
func getSourceScratch[D dist](pool *sync.Pool, n int) *sourceScratch[D] {
	sc, _ := pool.Get().(*sourceScratch[D])
	if sc == nil {
		sc = &sourceScratch[D]{t: make([]D, n+1)}
		inf := infOf[D]()
		for i := range sc.t {
			sc.t[i] = inf
		}
	}
	return sc
}

// load pins the source label given by its hub ranks and distances.
func (sc *sourceScratch[D]) load(hubs []int32, dists []D) {
	dists = dists[:len(hubs)]
	for i, w := range hubs {
		sc.t[w] = dists[i]
	}
	sc.loaded = append(sc.loaded, hubs...)
}

// probe lowers best to the least source→hub→target distance over the
// target label given by its hub ranks and distances.
func (sc *sourceScratch[D]) probe(hubs []int32, dists []D, best int64) int64 {
	t, inf := sc.t, infOf[D]()
	dists = dists[:len(hubs)]
	for j, w := range hubs {
		if tw := t[w]; tw != inf {
			if d := int64(tw) + int64(dists[j]); d < best {
				best = d
			}
		}
	}
	return best
}

// release resets the pinned entries and returns the scratch to pool.
func (sc *sourceScratch[D]) release(pool *sync.Pool) {
	inf := infOf[D]()
	for _, w := range sc.loaded {
		sc.t[w] = inf
	}
	sc.loaded = sc.loaded[:0]
	pool.Put(sc)
}

// prober pins one source rank of a store: L_OUT(source) in a pooled
// scratch, so each probe costs one scan of the candidate's L_IN plus
// its bit-parallel row. It is a runquery.Prober; Release returns the
// scratch.
type prober[D dist] struct {
	st *store[D]
	sc *sourceScratch[D]
	rs int32
}

func (st *store[D]) newProber(rs int32) prober[D] {
	sc := getSourceScratch[D](&st.batchPool, st.n)
	sc.load(st.out.span(rs))
	return prober[D]{st: st, sc: sc, rs: rs}
}

// NewProber pins source rank rs for composite point probes.
func (st *store[D]) NewProber(rs int32) runquery.Prober { return st.newProber(rs) }

// Dist returns the exact distance from the pinned source to rank rv,
// or Unreachable.
func (p prober[D]) Dist(rv int32) int64 {
	if rv == p.rs {
		return 0
	}
	st := p.st
	best := unreached
	if st.numBP > 0 {
		best = st.bpLower(p.rs, rv, best)
	}
	hubs, dists := st.in.span(rv)
	return orUnreachable(p.sc.probe(hubs, dists, best))
}

// Release returns the pinned scratch to the index's pool.
func (p prober[D]) Release() { p.sc.release(&p.st.batchPool) }

// DistanceFrom answers a single-source batch: dst[i] = d(s, targets[i])
// with the Oracle convention. The source's label (L_OUT on directed
// indexes) is pinned once; each target then costs one scan of its own
// (L_IN) label and bit-parallel row. A non-nil profile records one
// merge covering the whole batch: the source label and every target
// label, each with its bit-parallel row. Safe for concurrent use.
func (st *store[D]) DistanceFrom(s int32, targets []int32, dst []int64, p *trace.QueryProfile) []int64 {
	var start time.Time
	if p != nil {
		start = time.Now()
	}
	dst = ensureI64(dst, len(targets))
	if len(targets) > 0 {
		pr := st.newProber(st.rank[s])
		for i, t := range targets {
			dst[i] = pr.Dist(st.rank[t])
		}
		pr.Release()
	}
	if p != nil {
		elapsed := time.Since(start)
		entries := st.out.size(st.rank[s]) + int64(st.numBP)
		for _, t := range targets {
			entries += st.in.size(st.rank[t]) + int64(st.numBP)
		}
		p.AddMerge(entries, elapsed)
	}
	return dst
}

// DistanceFrom answers a single-source batch over one published version
// of the labels (-1 unreachable), profiled like the static indexes'
// DistanceFrom. Readers run concurrently with each other and with
// InsertEdges, so the scratch is pooled rather than owned.
func (di *DynamicIndex) DistanceFrom(s int32, targets []int32, dst []int64, p *trace.QueryProfile) []int64 {
	var start time.Time
	if p != nil {
		start = time.Now()
	}
	vw := di.view.Load()
	dst = ensureI64(dst, len(targets))
	if len(targets) > 0 {
		sc := getSourceScratch[uint8](&di.batchPool, di.n)
		sc.load(vw.row(di.rank[s]))
		for k, tv := range targets {
			if tv == s {
				dst[k] = 0
				continue
			}
			hubs, dists := vw.row(di.rank[tv])
			dst[k] = orUnreachable(sc.probe(hubs, dists, unreached))
		}
		sc.release(&di.batchPool)
	}
	if p != nil {
		elapsed := time.Since(start)
		hubs, _ := vw.row(di.rank[s])
		entries := int64(len(hubs))
		for _, t := range targets {
			hubs, _ = vw.row(di.rank[t])
			entries += int64(len(hubs))
		}
		p.AddMerge(entries, elapsed)
	}
	return dst
}
