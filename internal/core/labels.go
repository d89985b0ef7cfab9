package core

// The label store. Every static index — undirected (§4), directed and
// weighted (§6) — is the same distance-aware 2-hop cover: per-vertex
// labels of (hub rank, distance) pairs, sorted by hub rank, queried by
// a merge join. Only the search that builds the labels (BFS, forward
// and backward BFS, Dijkstra) and the distance width differ, so the
// labels live in one generic family and every query engine — merge,
// path walk, single-source batches, hub search, composite probes,
// statistics and the flat codec — is written once over store[D]. What
// tells the variants apart is data: the distance width D, whether the
// target side of a merge is the source family itself or a second one
// (directed L_IN), the bit-parallel columns only undirected indexes
// fill, and the flat section IDs each variant names (flat.go).

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
	"unsafe"

	"pll/internal/order"
	"pll/internal/trace"
)

// dist is a label distance width: 8-bit hop counts (§4.5 "Arrays") for
// the unweighted indexes, 32-bit weights for the weighted one.
type dist interface{ uint8 | uint32 }

// infOf returns D's in-label encoding of "unreachable" (InfDist or
// InfWeight32), which also closes every label as the sentinel distance.
func infOf[D dist]() D { return ^D(0) }

// unreached is the merge accumulator's initial value: a merge that
// still returns it found no hub connecting the pair.
const unreached = int64(math.MaxInt64)

// orUnreachable maps a merge result to the Oracle convention.
func orUnreachable(best int64) int64 {
	if best == unreached {
		return Unreachable
	}
	return best
}

// labels is one label family in CSR form. The label of rank r occupies
// entries [off[r], off[r+1]): hub ranks ascending (§4.5 "Sorting
// Labels"), their distances in a parallel array (§4.5 "Querying"), and
// a closing sentinel pair (n, inf) so merge joins need no bounds
// checks.
type labels[D dist] struct {
	off    []int64
	vertex []int32
	dist   []D
	parent []int32 // search-tree parents (ranks), sentinel -1; nil unless built with StorePaths
}

// size returns the number of entries in rank r's label, sentinel
// excluded.
func (l *labels[D]) size(r int32) int64 { return l.off[r+1] - l.off[r] - 1 }

// span returns rank r's hub ranks and distances, sentinel excluded.
func (l *labels[D]) span(r int32) ([]int32, []D) {
	lo, hi := l.off[r], l.off[r+1]-1
	return l.vertex[lo:hi], l.dist[lo:hi]
}

// flatten lays growing per-rank labels out as one sentinel-terminated
// family; labP (parents) may be nil. The inputs are left untouched.
func flatten[D dist](labV [][]int32, labD [][]D, labP [][]int32) *labels[D] {
	n := len(labV)
	total := int64(n) // one sentinel per vertex
	for _, lv := range labV {
		total += int64(len(lv))
	}
	l := &labels[D]{off: make([]int64, n+1), vertex: make([]int32, total), dist: make([]D, total)}
	if labP != nil {
		l.parent = make([]int32, total)
	}
	w := int64(0)
	for v := range labV {
		l.off[v] = w
		copy(l.vertex[w:], labV[v])
		copy(l.dist[w:], labD[v])
		if labP != nil {
			copy(l.parent[w:], labP[v])
		}
		w += int64(len(labV[v]))
		l.vertex[w] = int32(n)
		l.dist[w] = infOf[D]()
		if labP != nil {
			l.parent[w] = -1
		}
		w++
	}
	l.off[n] = w
	return l
}

// merge is the sentinel-terminated merge join of L_OUT(rs) and L_IN(rt)
// (§4.5 "Querying"): it returns the least d(s,h)+d(h,t) over their
// common hubs h when that beats best, with the hub achieving it, and
// (best, -1) otherwise. Both labels end with the sentinel hub n.
func (st *store[D]) merge(rs, rt int32, best int64) (int64, int32) {
	// Columns hoisted into locals; the distance columns resliced to their
	// hub columns' length so one bounds check covers both.
	av, bv := st.out.vertex, st.in.vertex
	ad, bd := st.out.dist[:len(av)], st.in.dist[:len(bv)]
	i, j, n := st.out.off[rs], st.in.off[rt], int32(st.n)
	hub := int32(-1)
	for {
		vs, vt := av[i], bv[j]
		switch {
		case vs == vt:
			if vs == n { // both hit the sentinel
				return best, hub
			}
			if d := int64(ad[i]) + int64(bd[j]); d < best {
				best, hub = d, vs
			}
			i++
			j++
		case vs < vt:
			i++
		default:
			j++
		}
	}
}

// walkBound caps a parent walk that starts at a label entry of
// distance d. A BFS-tree chain has exactly d steps, the hop count the
// entry records; a Dijkstra-tree chain has at most n-1, since
// zero-weight edges make it longer than its weight.
func walkBound[D dist](d D, n int) int {
	if _, hops := any(d).(uint8); hops {
		return int(d)
	}
	return n
}

// walk follows parent pointers from rank r up to hub, returning the
// rank sequence [r ... hub]. Every vertex on the search-tree path from
// the hub to a labeled vertex is itself labeled with the hub (it was
// expanded, hence labeled), so the chain is well defined; a walk past
// walkBound means corrupt parent pointers (a cycle in a loaded file)
// and is reported instead of followed forever.
func (l *labels[D]) walk(r, hub int32, n int) ([]int32, error) {
	chain := []int32{r}
	steps := -1 // read from r's entry for the hub on the first step
	for cur := r; cur != hub; {
		hubs, dists := l.span(cur)
		idx := searchLabel(hubs, hub)
		if idx < 0 {
			return nil, fmt.Errorf("core: broken parent chain at rank %d for hub %d", cur, hub)
		}
		if steps < 0 {
			steps = walkBound(dists[idx], n)
		}
		if len(chain) > steps {
			return nil, fmt.Errorf("core: parent chain from rank %d exceeds %d steps to hub %d", r, steps, hub)
		}
		p := l.parent[l.off[cur]+int64(idx)]
		if p < 0 { // reached the hub's own self entry
			break
		}
		chain = append(chain, p)
		cur = p
	}
	return chain, nil
}

// searchLabel finds hub in the sorted rank slice, returning its position
// or -1.
func searchLabel(vertices []int32, hub int32) int {
	i := sort.Search(len(vertices), func(i int) bool { return vertices[i] >= hub })
	if i < len(vertices) && vertices[i] == hub {
		return i
	}
	return -1
}

// bitParallel holds the bit-parallel labels of §5: for each of numBP
// roots r with neighbor set S_r, every vertex v stores d(r,v) and its
// S^{-1}/S^{0} sets as 64-bit masks, flattened v*numBP+i (per-vertex
// interleaving keeps prune tests and queries on one cache line). Only
// undirected indexes fill it; it stays empty everywhere else.
type bitParallel struct {
	numBP  int      // number of bit-parallel roots (t in §5.4)
	bpDist []uint8  // distances from each root
	bpS1   []uint64 // S^{-1} sets
	bpS0   []uint64 // S^{0} sets
}

// bpLower lowers best using the bit-parallel labels (§5.3): for each
// root r the distance through {r} ∪ S_r is d(s,r)+d(r,t) minus 2 if
// the S^{-1} sets intersect, minus 1 if an S^{-1} set meets an S^{0}
// set.
func (bp *bitParallel) bpLower(rs, rt int32, best int64) int64 {
	// Both vertices' rows, sliced to exactly numBP entries so the loop
	// needs no bounds checks.
	k := bp.numBP
	os, ot := int(rs)*k, int(rt)*k
	sd, dist := bp.bpDist[os:][:k], bp.bpDist[ot:][:k]
	s1, t1 := bp.bpS1[os:][:k], bp.bpS1[ot:][:k]
	s0, t0 := bp.bpS0[os:][:k], bp.bpS0[ot:][:k]
	for i, ds := range sd {
		dt := dist[i]
		if ds == InfDist || dt == InfDist {
			continue
		}
		td := int64(ds) + int64(dt)
		if td-2 < best {
			// The S^{0} masks are read only when the S^{-1} test fails:
			// the target's rows are the cache misses of a batch.
			if s1[i]&t1[i] != 0 {
				td -= 2
			} else if s1[i]&t0[i] != 0 || s0[i]&t1[i] != 0 {
				td--
			}
			if td < best {
				best = td
			}
		}
	}
	return best
}

// store is the query-ready form of every static index. Vertices are
// identified by rank (position in the construction order) so labels
// come out sorted for free (§4.5); perm and rank translate at the API
// boundary.
type store[D dist] struct {
	n       int
	variant Variant
	perm    []int32 // rank -> original vertex ID
	rank    []int32 // original vertex ID -> rank

	// out is the source side of every merge and in the target side:
	// the same family on undirected and weighted indexes, L_OUT and
	// L_IN on directed ones.
	out, in *labels[D]
	bitParallel

	batchPool sync.Pool   // recycles *sourceScratch[D] for DistanceFrom and composite probes
	search    searchState // lazily built hub-inverted index over in (search.go)
}

// setOrder records the vertex order perm[rank] = vertex (copied) and
// its inverse.
func (st *store[D]) setOrder(v Variant, perm []int32) {
	st.n, st.variant = len(perm), v
	st.perm = append([]int32(nil), perm...)
	st.rank = order.RankOf(perm)
}

// families returns the distinct label families: one, or L_OUT and L_IN.
func (st *store[D]) families() []*labels[D] {
	if st.in == st.out {
		return []*labels[D]{st.out}
	}
	return []*labels[D]{st.out, st.in}
}

// NumVertices returns the number of vertices the index covers.
func (st *store[D]) NumVertices() int { return st.n }

// Variant reports the flavor recorded in container headers and Stats.
// Indexes frozen from a DynamicIndex report VariantDynamic; the
// provenance survives serialization round trips.
func (st *store[D]) Variant() Variant { return st.variant }

// HasPaths reports whether the index stores parent pointers and can
// answer Path.
func (st *store[D]) HasPaths() bool { return st.out.parent != nil }

// entries returns the number of label entries vertex rank r carries
// (|L_OUT(r)| + |L_IN(r)| on directed indexes).
func (st *store[D]) entries(r int32) int64 {
	sz := st.out.size(r)
	if st.in != st.out {
		sz += st.in.size(r)
	}
	return sz
}

// LabelSize returns the number of label entries of vertex v, sentinels
// excluded.
func (st *store[D]) LabelSize(v int32) int { return int(st.entries(st.rank[v])) }

// Label returns the (hub, distance) pairs of vertex v's (out-)label
// with hubs translated back to original vertex IDs, excluding the
// sentinel. It is intended for inspection and experiments, not hot
// paths.
func (st *store[D]) Label(v int32) (hubs []int32, dists []D) {
	hv, hd := st.out.span(st.rank[v])
	hubs = make([]int32, len(hv))
	for i, h := range hv {
		hubs[i] = st.perm[h]
	}
	dists = make([]D, len(hd))
	copy(dists, hd)
	return hubs, dists
}

// distance is the query engine: the bit-parallel bound (if any)
// lowered by the merge join of L_OUT(s) and L_IN(t), in the Oracle
// convention (Unreachable for disconnected pairs). Out-of-range
// vertices panic, mirroring slice indexing.
func (st *store[D]) distance(s, t int32) int64 {
	if s == t {
		return 0
	}
	rs, rt := st.rank[s], st.rank[t]
	best := unreached
	if st.numBP > 0 {
		best = st.bpLower(rs, rt, best)
	}
	best, _ = st.merge(rs, rt, best)
	return orUnreachable(best)
}

// Distance returns the exact s-t distance, or Unreachable. A non-nil
// profile records the merge: its duration and the label entries it
// spans (both labels plus both sides' bit-parallel rows).
func (st *store[D]) Distance(s, t int32, p *trace.QueryProfile) int64 {
	if p == nil {
		return st.distance(s, t)
	}
	start := time.Now()
	d := st.distance(s, t)
	elapsed := time.Since(start)
	p.AddMerge(st.out.size(st.rank[s])+st.in.size(st.rank[t])+int64(2*st.numBP), elapsed)
	return d
}

// Path returns one exact shortest path from s to t (inclusive of both
// endpoints) and its length, or (nil, Unreachable) for disconnected
// pairs. The index must have been built with StorePaths. On directed
// indexes L_OUT parents are successors toward the hub and L_IN parents
// predecessors from it, so the same two walks join into an s→t path.
func (st *store[D]) Path(s, t int32) ([]int32, int64, error) {
	if !st.HasPaths() {
		return nil, 0, errors.New("core: index was built without StorePaths")
	}
	if s == t {
		return []int32{s}, 0, nil
	}
	rs, rt := st.rank[s], st.rank[t]
	best, hub := st.merge(rs, rt, unreached)
	if hub < 0 {
		return nil, Unreachable, nil
	}
	up, err := st.out.walk(rs, hub, st.n)
	if err != nil {
		return nil, 0, err
	}
	down, err := st.in.walk(rt, hub, st.n)
	if err != nil {
		return nil, 0, err
	}
	// up = [s ... hub], down = [t ... hub]; join them.
	path := make([]int32, 0, len(up)+len(down)-1)
	for _, r := range up {
		path = append(path, st.perm[r])
	}
	for k := len(down) - 2; k >= 0; k-- {
		path = append(path, st.perm[down[k]])
	}
	return path, best, nil
}

// Stats summarizes an index for the paper's IS / LN columns. Every
// variant produces the same struct, so metrics and serving layers can
// introspect any oracle uniformly; Variant names the flavor.
type Stats struct {
	Variant            Variant
	NumVertices        int
	NumBitParallel     int
	TotalLabelEntries  int64   // normal label entries over all vertices (no sentinels)
	AvgLabelSize       float64 // LN's left component
	MaxLabelSize       int
	IndexBytes         int64 // estimated in-memory footprint of label + BP arrays
	BitParallelBytes   int64
	NormalLabelBytes   int64
	HasParentPointers  bool
	LabelSizeQuantiles [5]int // min, p25, p50, p75, max of per-vertex label sizes

	// Hub-occupancy distribution: how the normal label entries spread
	// over hubs (the inverted view behind the search subsystem).
	DistinctHubs int     // hubs carried by at least one label entry
	MaxHubLoad   int     // label entries carried by the most frequent hub
	AvgHubLoad   float64 // label entries per occupied hub
}

// ComputeStats scans the index and returns summary statistics.
// Per-vertex label sizes are |L_OUT(v)| + |L_IN(v)| on directed
// indexes.
func (st *store[D]) ComputeStats() Stats {
	s := Stats{
		Variant:           st.variant,
		NumVertices:       st.n,
		NumBitParallel:    st.numBP,
		HasParentPointers: st.HasPaths(),
	}
	sizes := st.labelSizes()
	for _, sz := range sizes {
		s.TotalLabelEntries += int64(sz)
		s.MaxLabelSize = max(s.MaxLabelSize, sz)
	}
	if st.n > 0 {
		s.AvgLabelSize = float64(s.TotalLabelEntries) / float64(st.n)
	}
	insertionSortQuantiles(sizes, &s.LabelSizeQuantiles)
	fams := st.families()
	hubs := make([][]int32, len(fams))
	width := int64(unsafe.Sizeof(infOf[D]()))
	for i, f := range fams {
		hubs[i] = f.vertex
		s.NormalLabelBytes += int64(len(f.vertex))*4 + int64(len(f.dist))*width + int64(len(f.parent))*4
		s.IndexBytes += int64(len(f.off)) * 8
	}
	applyHubStats(&s, st.n, hubs...)
	s.BitParallelBytes = int64(len(st.bpDist)) + int64(len(st.bpS1))*8 + int64(len(st.bpS0))*8
	s.IndexBytes += s.NormalLabelBytes + s.BitParallelBytes + int64(len(st.perm))*8
	return s
}

// labelSizes returns per-rank label sizes.
func (st *store[D]) labelSizes() []int {
	sizes := make([]int, st.n)
	for r := range sizes {
		sizes[r] = int(st.entries(int32(r)))
	}
	return sizes
}

// LabelSizeDistribution returns per-vertex label sizes sorted
// ascending (Figure 3c).
func (st *store[D]) LabelSizeDistribution() []int {
	sizes := st.labelSizes()
	sort.Ints(sizes)
	return sizes
}

// insertionSortQuantiles fills q with min/p25/p50/p75/max of sizes.
func insertionSortQuantiles(sizes []int, q *[5]int) {
	if len(sizes) == 0 {
		return
	}
	sorted := make([]int, len(sizes))
	copy(sorted, sizes)
	sort.Ints(sorted)
	n := len(sorted)
	q[0] = sorted[0]
	q[1] = sorted[n/4]
	q[2] = sorted[n/2]
	q[3] = sorted[3*n/4]
	q[4] = sorted[n-1]
}

// applyHubStats fills the hub-occupancy Stats fields from one or more
// label-hub arrays (sentinel entries, which store n, fall outside the
// counted range and are skipped automatically).
func applyHubStats(st *Stats, n int, families ...[]int32) {
	if n == 0 {
		return
	}
	counts := make([]int32, n)
	for _, f := range families {
		for _, h := range f {
			if int(h) < n && h >= 0 {
				counts[h]++
			}
		}
	}
	var total int64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		st.DistinctHubs++
		total += int64(c)
		if int(c) > st.MaxHubLoad {
			st.MaxHubLoad = int(c)
		}
	}
	if st.DistinctHubs > 0 {
		st.AvgHubLoad = float64(total) / float64(st.DistinctHubs)
	}
}
