package hubsearch

import (
	"math"
	"math/bits"
)

// Query engines over an Inverted index. KNN, Range and Stream merge
// cursors over the inverted runs of the source's hubs in increasing key
// order. No cursor yields a distance below its key, and every vertex's
// exact distance is yielded at a key no larger than it, so a candidate
// is final once its tentative distance is at most the smallest key
// still in the merge. The cursors of one source are:
//   - per normal hub h, its run, keyed and yielding d(s,h)+d(h,v), the
//     two-hop bound;
//   - per bit-parallel root r, its plain run, keyed d(s,r)+d(r,v)-1 when
//     the source has any mask bit for r and d(s,r)+d(r,v) otherwise. It
//     yields the §5.3 −1 correction where that holds, else the raw sum;
//   - per bit of the source's S^{-1} mask for r, a posting cursor keyed
//     d(s,r)-2+d(r,v) over the run entries whose S^{-1} mask shares the
//     bit (postings.go). It yields its key: the −2 correction, exactly.
//
// All inputs and outputs are in rank space. The source vertex itself is
// never reported.

// Run is one merge input: the inverted run of a source hub (ID < N,
// Base = d(s, hub)) or of a bit-parallel root (ID = N+i, Base = the
// root's distance from the source).
type Run struct {
	ID   int32
	Base int64
}

// Result is one search answer in rank space.
type Result struct {
	Rank int32
	Dist int64
}

// candidate states in Scratch.state.
const (
	stateNew       uint8 = 0
	statePending   uint8 = 1
	stateFinalized uint8 = 2
)

// Scratch is the reusable per-query workspace: O(n) arrays reset via
// the touched list, so a pooled Scratch makes steady-state queries
// allocation-light. A Scratch serves one query at a time; pool them for
// concurrent use.
type Scratch struct {
	best    []int64 // tentative distance per rank; valid when state != stateNew
	state   []uint8
	touched []int32

	runs cursorHeap
	pend pendHeap
	topk topkHeap

	// Scanned and Runs count the entries any cursor advanced over and
	// the cursors seeded (runs and posting lists) by the last query on
	// this scratch, for per-query profiling. They are zeroed when a
	// query starts — not in reset — so callers can read them after a
	// deferred reset has returned the scratch.
	Scanned int64
	Runs    int
}

// NewScratch allocates a workspace for indexes of n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{
		best:  make([]int64, n),
		state: make([]uint8, n),
	}
}

// Fits reports whether the scratch is large enough for an index of n
// vertices (pools share scratches across same-sized indexes).
func (sc *Scratch) Fits(n int) bool { return len(sc.state) >= n }

func (sc *Scratch) reset() {
	for _, v := range sc.touched {
		sc.state[v] = stateNew
	}
	sc.touched = sc.touched[:0]
	sc.runs = sc.runs[:0]
	sc.pend = sc.pend[:0]
	sc.topk = sc.topk[:0]
}

// cursor walks one merge input: an inverted run, or one S^{-1} posting
// list of a bit-parallel run. key is base + Dist of the entry under it.
type cursor struct {
	key  int64
	pos  int64 // next entry of a run; next posting of a posting list
	end  int64
	base int64
	// bp is the bit-parallel root of a posting list, or of a plain run
	// keyed one under the raw sum; -1 otherwise.
	bp   int32
	post bool // a posting list, not a run
}

// cursorHeap is a hand-rolled min-heap over run cursors by key.
type cursorHeap []cursor

func (h *cursorHeap) push(c cursor) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].key <= (*h)[i].key {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *cursorHeap) pop() cursor {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.siftDown()
	return top
}

func (h cursorHeap) siftDown() {
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].key < h[l].key {
			m = r
		}
		if h[i].key <= h[m].key {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pendEntry is a tentative candidate awaiting finalization.
type pendEntry struct {
	dist int64
	rank int32
}

// pendHeap is a min-heap by dist with lazy deletion: stale entries
// (superseded by a smaller tentative distance, or already finalized)
// are skipped at pop time.
type pendHeap []pendEntry

func (h *pendHeap) push(e pendEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist <= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *pendHeap) pop() pendEntry {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && old[r].dist < old[l].dist {
			m = r
		}
		if old[i].dist <= old[m].dist {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}

// topkHeap is a size-capped max-heap of first-sighting distances. Its
// root, once the heap holds k entries, upper-bounds the k-th smallest
// final distance (first sightings only overestimate), which is the
// bound behind run pruning.
type topkHeap []int64

func (h *topkHeap) offer(d int64, k int) {
	if len(*h) < k {
		*h = append(*h, d)
		i := len(*h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if (*h)[p] >= (*h)[i] {
				break
			}
			(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
			i = p
		}
		return
	}
	if d >= (*h)[0] {
		return
	}
	(*h)[0] = d
	i := 0
	for {
		l := 2*i + 1
		if l >= len(*h) {
			return
		}
		m := l
		if r := l + 1; r < len(*h) && (*h)[r] > (*h)[l] {
			m = r
		}
		if (*h)[i] >= (*h)[m] {
			return
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
}

// seed pushes the source's cursors onto the cursor heap: one per
// non-empty run, plus one per non-empty S^{-1} posting list of the
// source's bit-parallel roots. On a compact (subset) inversion, source
// hubs absent from the subset's labels simply have no run.
func (inv *Inverted) seed(sc *Scratch, src []Run, srcS1, srcS0 []uint64) {
	for _, r := range src {
		lo, hi := inv.span(r.ID)
		if lo == hi {
			continue
		}
		i := int(r.ID) - inv.N
		if i < 0 || srcS1[i]|srcS0[i] == 0 {
			sc.runs.push(cursor{key: r.Base + int64(inv.Dist[lo]), pos: lo, end: hi, base: r.Base, bp: -1})
			continue
		}
		// A bit-parallel root the source has mask bits for: its run is
		// keyed one under the raw sum, and each S^{-1} bit walks its −2
		// candidates as a posting list.
		base := r.Base - 1
		sc.runs.push(cursor{key: base + int64(inv.Dist[lo]), pos: lo, end: hi, base: base, bp: int32(i)})
		post, base := inv.bitPostings(), r.Base-2
		for m := srcS1[i]; m != 0; m &= m - 1 {
			list := i*64 + bits.TrailingZeros64(m)
			if a, b := post.off[list], post.off[list+1]; a < b {
				key := base + int64(inv.Dist[lo+int64(post.pos[a])])
				sc.runs.push(cursor{key: key, pos: a, end: b, base: base, bp: int32(i), post: true})
			}
		}
	}
	sc.Runs = len(sc.runs)
}

// entry returns the Vertex/Dist index under cursor c.
func (inv *Inverted) entry(c *cursor) int64 {
	if !c.post {
		return c.pos
	}
	return inv.post.lo[c.bp] + int64(inv.post.pos[c.pos])
}

// yield returns the distance cursor c yields for v, the vertex under
// it: its key, except on a plain bit-parallel run where the source's
// and v's masks do not meet as S^{-1}/S^{0}, which yields the raw sum
// key+1. srcS1/srcS0 are the source's masks.
func (inv *Inverted) yield(c *cursor, v int32, srcS1, srcS0 []uint64) int64 {
	if c.bp < 0 || c.post {
		return c.key
	}
	o := int(v)*inv.NumBP + int(c.bp)
	if srcS1[c.bp]&inv.BPS0[o] != 0 || srcS0[c.bp]&inv.BPS1[o] != 0 {
		return c.key
	}
	return c.key + 1
}

// advance steps the smallest cursor past its entry and restores the
// heap order, dropping the cursor once it is exhausted.
func (inv *Inverted) advance(sc *Scratch) {
	c := &sc.runs[0]
	c.pos++
	sc.Scanned++
	if c.pos == c.end {
		sc.runs.pop()
		return
	}
	c.key = c.base + int64(inv.Dist[inv.entry(c)])
	sc.runs.siftDown()
}

// KNN returns every candidate whose exact distance from the source is
// at most the k-th smallest (so ties at the cutoff are all included),
// in non-decreasing distance order with ties unordered; the caller
// applies its own tie-break and trims to k. src holds the source's
// label runs, srcRank its own rank (excluded from results), and
// srcS1/srcS0 its bit-parallel masks (nil when NumBP is 0).
func (inv *Inverted) KNN(src []Run, srcRank int32, srcS1, srcS0 []uint64, k int, sc *Scratch) []Result {
	if k <= 0 {
		return nil
	}
	sc.Scanned, sc.Runs = 0, 0
	defer sc.reset()
	inv.seed(sc, src, srcS1, srcS0)
	var out []Result

	for {
		// Every future yield is at least r, the smallest key: finalize
		// the pending candidates nothing can improve, in distance order,
		// up to the k-th result and its ties.
		r := int64(math.MaxInt64)
		if len(sc.runs) > 0 {
			r = sc.runs[0].key
		}
		for len(sc.pend) > 0 && sc.pend[0].dist <= r {
			if len(out) >= k && sc.pend[0].dist > out[k-1].Dist {
				break
			}
			e := sc.pend.pop()
			if sc.state[e.rank] != statePending || sc.best[e.rank] != e.dist {
				continue // stale: superseded or already finalized
			}
			sc.state[e.rank] = stateFinalized
			out = append(out, Result{Rank: e.rank, Dist: e.dist})
		}
		if len(sc.runs) == 0 || len(out) >= k && r > out[k-1].Dist {
			return out // every candidate at or under the cutoff is final
		}
		// Once k candidates are known, no cursor whose key is past the
		// k-th first-sighting bound can contribute, and r is the
		// smallest key: drop them all and drain.
		if len(sc.topk) >= k && r > sc.topk[0] {
			sc.runs = sc.runs[:0]
			continue
		}
		c := &sc.runs[0]
		v := inv.Vertex[inv.entry(c)]
		// The in-range guard keeps a corrupt persisted section (mmap
		// Open trusts entry contents, like the label arrays) degrading
		// to wrong answers instead of an index-out-of-range panic.
		if uint32(v) < uint32(inv.N) && v != srcRank && sc.state[v] != stateFinalized {
			d := inv.yield(c, v, srcS1, srcS0)
			switch {
			case sc.state[v] == stateNew:
				sc.state[v] = statePending
				sc.touched = append(sc.touched, v)
				sc.best[v] = d
				sc.pend.push(pendEntry{dist: d, rank: v})
				sc.topk.offer(d, k)
			case d < sc.best[v]:
				sc.best[v] = d
				sc.pend.push(pendEntry{dist: d, rank: v})
			}
		}
		inv.advance(sc)
	}
}

// Range returns every vertex within distance radius of the source
// (source excluded), in no particular order; the caller sorts. The
// merge stops at the first key beyond the radius, so each cursor is cut
// at its first out-of-range entry.
func (inv *Inverted) Range(src []Run, srcRank int32, srcS1, srcS0 []uint64, radius int64, sc *Scratch) []Result {
	if radius < 0 {
		return nil
	}
	sc.Scanned, sc.Runs = 0, 0
	defer sc.reset()
	inv.seed(sc, src, srcS1, srcS0)

	for len(sc.runs) > 0 && sc.runs[0].key <= radius {
		c := &sc.runs[0]
		v := inv.Vertex[inv.entry(c)]
		if uint32(v) < uint32(inv.N) && v != srcRank { // in-range guard: see KNN
			if d := inv.yield(c, v, srcS1, srcS0); d <= radius {
				if sc.state[v] == stateNew {
					sc.state[v] = statePending
					sc.touched = append(sc.touched, v)
					sc.best[v] = d
				} else if d < sc.best[v] {
					sc.best[v] = d
				}
			}
		}
		inv.advance(sc)
	}
	out := make([]Result, 0, len(sc.touched))
	for _, v := range sc.touched {
		out = append(out, Result{Rank: v, Dist: sc.best[v]})
	}
	return out
}
