package hubsearch

import (
	"math"
	"math/bits"
)

// postings are the S^{-1} postings of the bit-parallel runs. For root i
// and neighbour bit b, list i*64+b holds the positions, relative to
// lo[i], the first entry of root i's run, of the run entries v whose
// S^{-1} mask has bit b, in run order (by d(r,v)):
// pos[off[i*64+b]:off[i*64+b+1]]. A source s with bit b in its own
// S^{-1} mask reaches every v on that list at exactly d(s,r)-2+d(r,v),
// the §5.3 −2 correction, so the list is a merge input keyed by the
// corrected distance itself.
//
// They are derived from the masks and never persisted: a new container
// section would be one more parser of untrusted bytes.
type postings struct {
	lo  []int64
	off []int64
	pos []int32
}

// bitPostings returns the postings, deriving them on first use. Safe
// for concurrent use.
func (inv *Inverted) bitPostings() *postings {
	inv.postOnce.Do(func() { inv.post = inv.derivePostings() })
	return inv.post
}

// derivePostings counts, then fills, every list in one pass each over
// the bit-parallel runs. It reads only the run offsets the loader
// validated and skips out-of-range vertices, so a corrupt mapped
// container yields wrong answers rather than a panic.
func (inv *Inverted) derivePostings() *postings {
	p := &postings{lo: make([]int64, inv.NumBP), off: make([]int64, inv.NumBP*64+1)}
	hi := make([]int64, inv.NumBP)
	for i := range p.lo {
		lo, h := inv.span(int32(inv.N + i))
		// A run holds each vertex at most once, so valid positions fit
		// int32; the clamp only bounds corrupt runs.
		p.lo[i], hi[i] = lo, min(h, lo+math.MaxInt32)
	}
	each := func(visit func(list int, rel int32)) {
		for i, lo := range p.lo {
			for e := lo; e < hi[i]; e++ {
				v := inv.Vertex[e]
				if uint32(v) >= uint32(inv.N) {
					continue
				}
				for m := inv.BPS1[int(v)*inv.NumBP+i]; m != 0; m &= m - 1 {
					visit(i*64+bits.TrailingZeros64(m), int32(e-lo))
				}
			}
		}
	}
	each(func(list int, _ int32) { p.off[list+1]++ })
	for l := 1; l < len(p.off); l++ {
		p.off[l] += p.off[l-1]
	}
	p.pos = make([]int32, p.off[len(p.off)-1])
	next := append([]int64(nil), p.off...)
	each(func(list int, rel int32) {
		p.pos[next[list]] = rel
		next[list]++
	})
	return p
}
