package core

import (
	"fmt"
	"sync"

	"pll/internal/graph"
	"pll/internal/order"
)

// DirectedIndex is the §6 "Directed Graphs" variant: every vertex v
// carries two labels, L_OUT(v) of pairs (w, d(v,w)) and L_IN(v) of pairs
// (w, d(w,v)); the distance from s to t is the merge-join minimum over
// L_OUT(s) and L_IN(t). Labels are produced by a forward and a backward
// pruned BFS from each vertex in rank order.
type DirectedIndex struct {
	n    int
	perm []int32
	rank []int32

	outOff    []int64
	outVertex []int32
	outDist   []uint8
	outParent []int32 // successor toward the hub (ranks); nil unless StorePaths

	inOff    []int64
	inVertex []int32
	inDist   []uint8
	inParent []int32 // predecessor from the hub (ranks); nil unless StorePaths

	batchPool sync.Pool   // recycles *rankScratch8 for DistanceFrom
	search    searchState // lazily built hub-inverted L_IN index (search.go)
}

// DirectedOptions configures BuildDirected.
type DirectedOptions struct {
	// Ordering ranks vertices on the underlying undirected structure
	// (total degree); Degree is the paper's default.
	Ordering order.Strategy
	// Seed drives ordering tie-breaks.
	Seed uint64
	// CustomOrder, if non-nil, overrides Ordering.
	CustomOrder []int32
	// StorePaths records a parent pointer per label entry so QueryPath
	// can reconstruct directed shortest paths (§6).
	StorePaths bool
	// Workers parallelizes the pruned labeling (see Options.Workers);
	// the index is byte-identical regardless of the worker count.
	// 0 selects GOMAXPROCS.
	Workers int
}

// BuildDirected constructs a directed pruned-landmark-labeling index.
func BuildDirected(g *graph.Digraph, opt DirectedOptions) (*DirectedIndex, error) {
	n := g.NumVertices()
	perm := opt.CustomOrder
	if perm == nil {
		perm = order.Compute(g.Underlying(), opt.Ordering, opt.Seed)
	} else if len(perm) != n {
		return nil, fmt.Errorf("core: CustomOrder length %d != n %d", len(perm), n)
	}
	h, err := g.Relabel(perm)
	if err != nil {
		return nil, fmt.Errorf("core: invalid CustomOrder: %w", err)
	}

	db := newDirBuilder(h, opt.StorePaths)
	if workers := EffectiveWorkers(opt.Workers); workers > 1 {
		err = db.runParallel(workers)
	} else {
		err = db.runSequential()
	}
	if err != nil {
		return nil, err
	}

	ix := &DirectedIndex{
		n:    n,
		perm: append([]int32(nil), perm...),
		rank: order.RankOf(perm),
	}
	ix.outOff, ix.outVertex, ix.outDist = flattenLabels(n, db.outV, db.outD)
	ix.inOff, ix.inVertex, ix.inDist = flattenLabels(n, db.inV, db.inD)
	if opt.StorePaths {
		ix.outParent = flattenParents(n, ix.outOff, db.outP)
		ix.inParent = flattenParents(n, ix.inOff, db.inP)
	}
	return ix, nil
}

// dirBuilder holds the growing label families and the sequential-sweep
// scratch of one directed construction run. outV[u] holds L_OUT(u)
// hubs; inV[u] holds L_IN(u) hubs.
type dirBuilder struct {
	h *graph.Digraph // rank-relabeled digraph
	n int

	outV, inV [][]int32
	outD, inD [][]uint8
	outP, inP [][]int32 // parents; nil unless storing paths

	storePaths bool
	sc         dirScratch

	// Per-vertex marks for path-storing batch replays (parallel_directed.go).
	candD      []uint8
	candPruned []bool
}

// dirScratch is the per-sweep scratch of one directed pruned BFS.
type dirScratch struct {
	dist    []uint8
	par     []int32 // nil unless storing paths
	rootLab []uint8
	queue   []int32
}

func newDirScratch(n int, storePaths bool) *dirScratch {
	sc := &dirScratch{
		dist:    make([]uint8, n),
		rootLab: make([]uint8, n+1),
		queue:   make([]int32, 0, 1024),
	}
	if storePaths {
		sc.par = make([]int32, n)
	}
	for i := range sc.dist {
		sc.dist[i] = InfDist
	}
	for i := range sc.rootLab {
		sc.rootLab[i] = InfDist
	}
	return sc
}

func (sc *dirScratch) reset(visited []int32, rootLabelVertices []int32) {
	for _, v := range visited {
		sc.dist[v] = InfDist
	}
	for _, w := range rootLabelVertices {
		sc.rootLab[w] = InfDist
	}
}

func newDirBuilder(h *graph.Digraph, storePaths bool) *dirBuilder {
	n := h.NumVertices()
	db := &dirBuilder{
		h: h, n: n,
		outV: make([][]int32, n),
		outD: make([][]uint8, n),
		inV:  make([][]int32, n),
		inD:  make([][]uint8, n),

		storePaths: storePaths,
		sc:         *newDirScratch(n, storePaths),
	}
	if storePaths {
		db.outP = make([][]int32, n)
		db.inP = make([][]int32, n)
	}
	return db
}

// dir returns the machinery of one sweep direction. A forward sweep
// (fwd) runs over out-arcs, loads T from L_OUT(vk) and scans/extends
// L_IN(u); a backward sweep is the mirror image. The returned slices
// share backing with the builder, so appends through them are visible.
func (db *dirBuilder) dir(fwd bool) (neighbors func(int32) []int32, rootV [][]int32, rootD [][]uint8, scanV [][]int32, scanD [][]uint8, scanP [][]int32) {
	if fwd {
		return db.h.OutNeighbors, db.outV, db.outD, db.inV, db.inD, db.inP
	}
	return db.h.InNeighbors, db.inV, db.inD, db.outV, db.outD, db.outP
}

func (db *dirBuilder) runSequential() error {
	for vk := int32(0); int(vk) < db.n; vk++ {
		// Forward: from vk over out-arcs; tests L_OUT(vk) against
		// L_IN(u); labels go into L_IN(u).
		if err := db.sweep(vk, true); err != nil {
			return err
		}
		// Backward: from vk over in-arcs; tests L_IN(vk) against
		// L_OUT(u); labels go into L_OUT(u).
		if err := db.sweep(vk, false); err != nil {
			return err
		}
	}
	return nil
}

// sweep runs one pruned BFS from vk along the given arc direction,
// appending labels to the scan-side family. With StorePaths the
// BFS-tree predecessor of each labeled vertex is recorded too.
func (db *dirBuilder) sweep(vk int32, fwd bool) error {
	neighbors, rootV, rootD, scanV, scanD, scanP := db.dir(fwd)
	sc := &db.sc
	lv, ld := rootV[vk], rootD[vk]
	for i, w := range lv {
		sc.rootLab[w] = ld[i]
	}
	queue := sc.queue[:0]
	queue = append(queue, vk)
	sc.dist[vk] = 0
	if sc.par != nil {
		sc.par[vk] = -1
	}
	for qh := 0; qh < len(queue); qh++ {
		u := queue[qh]
		d := sc.dist[u]
		pruned := false
		uv, ud := scanV[u], scanD[u]
		for i, w := range uv {
			if tw := sc.rootLab[w]; tw != InfDist && int(tw)+int(ud[i]) <= int(d) {
				pruned = true
				break
			}
		}
		if !pruned {
			scanV[u] = append(scanV[u], vk)
			scanD[u] = append(scanD[u], d)
			if scanP != nil {
				scanP[u] = append(scanP[u], sc.par[u])
			}
			nd := int(d) + 1
			for _, w := range neighbors(u) {
				if sc.dist[w] == InfDist {
					if nd > MaxDist {
						sc.reset(queue, lv)
						sc.queue = queue[:0]
						return ErrDiameterTooLarge
					}
					sc.dist[w] = uint8(nd)
					if sc.par != nil {
						sc.par[w] = u
					}
					queue = append(queue, w)
				}
			}
		}
	}
	sc.reset(queue, lv)
	sc.queue = queue[:0]
	return nil
}

// flattenParents lays parent slices out parallel to already-flattened
// labels (off includes one sentinel slot per vertex).
func flattenParents(n int, off []int64, labP [][]int32) []int32 {
	out := make([]int32, off[n])
	w := int64(0)
	for v := 0; v < n; v++ {
		copy(out[w:], labP[v])
		w += int64(len(labP[v]))
		out[w] = -1 // sentinel
		w++
	}
	return out
}

func flattenLabels(n int, labV [][]int32, labD [][]uint8) ([]int64, []int32, []uint8) {
	total := int64(0)
	for v := 0; v < n; v++ {
		total += int64(len(labV[v])) + 1
	}
	off := make([]int64, n+1)
	vs := make([]int32, total)
	ds := make([]uint8, total)
	w := int64(0)
	for v := 0; v < n; v++ {
		off[v] = w
		copy(vs[w:], labV[v])
		copy(ds[w:], labD[v])
		w += int64(len(labV[v]))
		vs[w] = int32(n)
		ds[w] = InfDist
		w++
	}
	off[n] = w
	return off, vs, ds
}

// NumVertices returns the number of vertices the index covers.
func (ix *DirectedIndex) NumVertices() int { return ix.n }

// Query returns the exact directed distance from s to t, or Unreachable.
func (ix *DirectedIndex) Query(s, t int32) int {
	if s == t {
		return 0
	}
	rs, rt := ix.rank[s], ix.rank[t]
	best := infQuery
	i, j := ix.outOff[rs], ix.inOff[rt]
	for {
		vs, vt := ix.outVertex[i], ix.inVertex[j]
		switch {
		case vs == vt:
			if int(vs) == ix.n {
				if best >= infQuery {
					return Unreachable
				}
				return best
			}
			if d := int(ix.outDist[i]) + int(ix.inDist[j]); d < best {
				best = d
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

// HasPaths reports whether the index can answer QueryPath.
func (ix *DirectedIndex) HasPaths() bool { return ix.outParent != nil }

// QueryPath returns one directed shortest s-to-t path (inclusive of both
// endpoints), or nil if t is unreachable from s. The index must have
// been built with StorePaths.
func (ix *DirectedIndex) QueryPath(s, t int32) ([]int32, error) {
	if ix.outParent == nil {
		return nil, fmt.Errorf("core: directed index was built without StorePaths")
	}
	if s == t {
		return []int32{s}, nil
	}
	rs, rt := ix.rank[s], ix.rank[t]
	best := infQuery
	hub := int32(-1)
	i, j := ix.outOff[rs], ix.inOff[rt]
	for {
		vs, vt := ix.outVertex[i], ix.inVertex[j]
		if vs == vt {
			if int(vs) == ix.n {
				break
			}
			if d := int(ix.outDist[i]) + int(ix.inDist[j]); d < best {
				best = d
				hub = vs
			}
			i++
			j++
		} else if vs < vt {
			i++
		} else {
			j++
		}
	}
	if hub < 0 {
		return nil, nil
	}
	// s -> hub: L_OUT(s) parents are successors toward the hub (they
	// come from the backward BFS tree rooted at the hub).
	fwd, err := chainDirected(ix.n, rs, hub, ix.outOff, ix.outVertex, ix.outParent)
	if err != nil {
		return nil, err
	}
	// t <- hub: L_IN(t) parents are predecessors along the hub-to-t path.
	back, err := chainDirected(ix.n, rt, hub, ix.inOff, ix.inVertex, ix.inParent)
	if err != nil {
		return nil, err
	}
	path := make([]int32, 0, len(fwd)+len(back)-1)
	for _, r := range fwd {
		path = append(path, ix.perm[r])
	}
	for k := len(back) - 2; k >= 0; k-- {
		path = append(path, ix.perm[back[k]])
	}
	return path, nil
}

// chainDirected follows one label family's parent pointers from rank r
// toward hub, returning [r ... hub].
func chainDirected(n int, r, hub int32, off []int64, vs []int32, ps []int32) ([]int32, error) {
	chain := []int32{r}
	cur := r
	for cur != hub {
		lo, hi := off[cur], off[cur+1]-1
		idx := searchLabel(vs[lo:hi], hub)
		if idx < 0 {
			return nil, fmt.Errorf("core: broken directed parent chain at rank %d for hub %d", cur, hub)
		}
		p := ps[lo+int64(idx)]
		if p < 0 {
			break
		}
		chain = append(chain, p)
		cur = p
	}
	return chain, nil
}

// ComputeStats scans the directed index and returns summary statistics.
// Per-vertex label sizes are |L_OUT(v)| + |L_IN(v)|.
func (ix *DirectedIndex) ComputeStats() Stats {
	st := Stats{
		Variant:           VariantDirected,
		NumVertices:       ix.n,
		HasParentPointers: ix.outParent != nil,
	}
	sizes := make([]int, ix.n)
	for r := 0; r < ix.n; r++ {
		sz := int(ix.outOff[r+1]-ix.outOff[r]-1) + int(ix.inOff[r+1]-ix.inOff[r]-1)
		sizes[r] = sz
		st.TotalLabelEntries += int64(sz)
		if sz > st.MaxLabelSize {
			st.MaxLabelSize = sz
		}
	}
	if ix.n > 0 {
		st.AvgLabelSize = float64(st.TotalLabelEntries) / float64(ix.n)
	}
	insertionSortQuantiles(sizes, &st.LabelSizeQuantiles)
	applyHubStats(&st, ix.n, ix.outVertex, ix.inVertex)
	st.NormalLabelBytes = int64(len(ix.outVertex))*4 + int64(len(ix.outDist)) +
		int64(len(ix.inVertex))*4 + int64(len(ix.inDist))
	if ix.outParent != nil {
		st.NormalLabelBytes += int64(len(ix.outParent))*4 + int64(len(ix.inParent))*4
	}
	st.IndexBytes = st.NormalLabelBytes +
		int64(len(ix.outOff))*8 + int64(len(ix.inOff))*8 + int64(len(ix.perm))*8
	return st
}
