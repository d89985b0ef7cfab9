package core

// BatchSource answers many queries that share one endpoint faster than
// repeated merge joins. It applies the §4.5 "Querying" trick used during
// construction to the query path: the source's label is expanded into a
// rank-indexed array T once, after which each target costs a single scan
// of its own label, O(|L(t)|) instead of O(|L(s)|+|L(t)|).
//
// Typical use is the paper's motivating workloads — socially-sensitive
// search and context-aware search — where one user/page is compared
// against hundreds of candidates per request.
//
// BatchSource is the engine behind Index.DistanceFrom (the Batcher
// capability), which pools instances and should be preferred by new
// code. A BatchSource holds scratch arrays sized to the graph; reuse it
// across sources via Reset. Like Query, it panics on out-of-range
// vertices — callers validate. Not safe for concurrent use.
type BatchSource struct {
	ix *Index
	// t[w] = distance from the current source to hub rank w, InfDist if
	// absent from the source's label.
	t []uint8
	// loaded hub ranks, for O(|L(s)|) reset.
	loaded []int32
	src    int32
	// source-side bit-parallel mirrors.
	bpDv  []uint8
	bpS1v []uint64
	bpS0v []uint64
}

// NewBatchSource prepares batched querying from source s.
func (ix *Index) NewBatchSource(s int32) *BatchSource {
	b := &BatchSource{
		ix:    ix,
		t:     make([]uint8, ix.n+1),
		bpDv:  make([]uint8, ix.numBP),
		bpS1v: make([]uint64, ix.numBP),
		bpS0v: make([]uint64, ix.numBP),
	}
	for i := range b.t {
		b.t[i] = InfDist
	}
	b.Reset(s)
	return b
}

// Reset switches the batch to a new source vertex.
func (b *BatchSource) Reset(s int32) {
	ix := b.ix
	for _, w := range b.loaded {
		b.t[w] = InfDist
	}
	b.loaded = b.loaded[:0]
	b.src = s
	rs := ix.rank[s]
	lo, hi := ix.labelOff[rs], ix.labelOff[rs+1]-1
	for i := lo; i < hi; i++ {
		w := ix.labelVertex[i]
		b.t[w] = ix.labelDist[i]
		b.loaded = append(b.loaded, w)
	}
	os := int(rs) * ix.numBP
	for i := 0; i < ix.numBP; i++ {
		b.bpDv[i] = ix.bpDist[os+i]
		b.bpS1v[i] = ix.bpS1[os+i]
		b.bpS0v[i] = ix.bpS0[os+i]
	}
}

// Query returns the exact distance from the batch source to t, or
// Unreachable. Results are identical to Index.Query(source, t).
func (b *BatchSource) Query(t int32) int {
	if t == b.src {
		return 0
	}
	ix := b.ix
	rt := ix.rank[t]
	best := infQuery
	// Bit-parallel part, reading the cached source mirrors.
	ot := int(rt) * ix.numBP
	for i := 0; i < ix.numBP; i++ {
		dv := b.bpDv[i]
		if dv == InfDist {
			continue
		}
		du := ix.bpDist[ot+i]
		if du == InfDist {
			continue
		}
		td := int(dv) + int(du)
		if td-2 < best {
			if b.bpS1v[i]&ix.bpS1[ot+i] != 0 {
				td -= 2
			} else if b.bpS1v[i]&ix.bpS0[ot+i] != 0 || b.bpS0v[i]&ix.bpS1[ot+i] != 0 {
				td -= 1
			}
			if td < best {
				best = td
			}
		}
	}
	// Normal labels: one scan of L(t) against the T array.
	lo, hi := ix.labelOff[rt], ix.labelOff[rt+1]-1
	for i := lo; i < hi; i++ {
		tw := b.t[ix.labelVertex[i]]
		if tw != InfDist {
			if d := int(tw) + int(ix.labelDist[i]); d < best {
				best = d
			}
		}
	}
	if best >= infQuery {
		return Unreachable
	}
	return best
}
