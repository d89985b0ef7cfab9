package hubsearch

// Stream is the pull-based form of the cursor merge behind KNN and
// Range: it yields each reachable candidate exactly once, in
// nondecreasing (corrected) distance order, stopping at a
// caller-supplied cutoff that is pushed into the scans — the whole
// merge stops at the first key beyond the cutoff, since keys
// lower-bound every distance still to come.
//
// The streaming query engine (internal/runquery) drives one Stream per
// leaf constraint so that composed queries — AND/OR trees over several
// distance constraints — never materialize a full neighborhood: the
// consumer stops pulling as soon as its own top-k bound is met, and the
// work done is bounded by the entries actually pulled plus the pending
// frontier, not by the cutoff's total coverage.
//
// A Stream borrows its Scratch for the duration of the iteration; Close
// resets the scratch so it can be pooled again. Like KNN, results with
// equal distance arrive in unspecified order — callers apply their own
// tie-break.

// Stream iterates the merge incrementally; see query.go on keys and
// ordering.
type Stream struct {
	inv          *Inverted
	sc           *Scratch
	srcRank      int32
	srcS1, srcS0 []uint64
	cutoff       int64
}

// NewStream starts a cutoff-bounded merge over the source's runs. src,
// srcRank and the mask slices have the KNN contract; cutoff bounds the
// corrected distances yielded (negative yields nothing). The scratch
// must be reset between queries — Close does so.
func (inv *Inverted) NewStream(src []Run, srcRank int32, srcS1, srcS0 []uint64, cutoff int64, sc *Scratch) *Stream {
	st := &Stream{
		inv:     inv,
		sc:      sc,
		srcRank: srcRank,
		srcS1:   srcS1,
		srcS0:   srcS0,
		cutoff:  cutoff,
	}
	sc.Scanned, sc.Runs = 0, 0
	if cutoff >= 0 {
		inv.seed(sc, src, srcS1, srcS0)
	}
	return st
}

// Next returns the next candidate in nondecreasing distance order, or
// false when every vertex within the cutoff has been yielded. Each
// vertex is yielded at most once, with its exact (corrected) distance.
func (st *Stream) Next() (Result, bool) {
	sc, inv := st.sc, st.inv
	for {
		// Finalize the nearest pending candidate once nothing left in
		// the merge can improve it: every future yield is at least the
		// smallest key.
		if len(sc.pend) > 0 && (len(sc.runs) == 0 || sc.pend[0].dist <= sc.runs[0].key) {
			e := sc.pend.pop()
			if sc.state[e.rank] != statePending || sc.best[e.rank] != e.dist {
				continue // stale: superseded or already finalized
			}
			sc.state[e.rank] = stateFinalized
			return Result{Rank: e.rank, Dist: e.dist}, true
		}
		if len(sc.runs) == 0 {
			return Result{}, false
		}
		if sc.runs[0].key > st.cutoff {
			// Cutoff pushdown: nothing still in the merge can land
			// within the cutoff — drop every cursor and drain the
			// pending heap above.
			sc.runs = sc.runs[:0]
			continue
		}
		c := &sc.runs[0]
		v := inv.Vertex[inv.entry(c)]
		// The in-range guard keeps corrupt persisted sections degrading
		// to wrong answers instead of a panic, mirroring KNN.
		if uint32(v) < uint32(inv.N) && v != st.srcRank && sc.state[v] != stateFinalized {
			if d := inv.yield(c, v, st.srcS1, st.srcS0); d <= st.cutoff {
				switch {
				case sc.state[v] == stateNew:
					sc.state[v] = statePending
					sc.touched = append(sc.touched, v)
					sc.best[v] = d
					sc.pend.push(pendEntry{dist: d, rank: v})
				case sc.state[v] == statePending && d < sc.best[v]:
					sc.best[v] = d
					sc.pend.push(pendEntry{dist: d, rank: v})
				}
			}
		}
		inv.advance(sc)
	}
}

// Close resets the borrowed scratch so it can serve another query. The
// stream must not be used afterwards.
func (st *Stream) Close() { st.sc.reset() }

// PrefixWithin returns how many entries of run id store a distance of
// at most maxDist — the length of the prefix a cutoff-bounded scan of
// the run would visit. It is the per-run building block of the query
// planner's selectivity estimate: summed over a source's runs (with
// maxDist = cutoff - base) it upper-bounds, duplicates included, the
// number of entries a constraint scan touches.
func (inv *Inverted) PrefixWithin(id int32, maxDist int64) int64 {
	if maxDist < 0 {
		return 0
	}
	slot := id
	if inv.RunIndex != nil {
		var ok bool
		if slot, ok = inv.RunIndex[id]; !ok {
			return 0
		}
	}
	if slot < 0 || int(slot) >= len(inv.Off)-1 {
		return 0
	}
	lo, hi := inv.Off[slot], inv.Off[slot+1]
	if maxDist >= int64(^uint32(0)) {
		return hi - lo
	}
	// Binary search for the first entry beyond maxDist; the run is
	// sorted by (dist, vertex), so distances are nondecreasing.
	d := uint32(maxDist)
	for lo < hi {
		mid := (lo + hi) / 2
		if inv.Dist[mid] <= d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - inv.Off[slot]
}
