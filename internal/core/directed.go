package core

import (
	"fmt"

	"pll/internal/graph"
	"pll/internal/order"
)

// DirectedIndex is the §6 "Directed Graphs" variant: every vertex v
// carries two labels, L_OUT(v) of pairs (w, d(v,w)) and L_IN(v) of pairs
// (w, d(w,v)); the distance from s to t is the merge-join minimum over
// L_OUT(s) and L_IN(t). Labels are produced by a forward and a backward
// pruned BFS from each vertex in rank order. It is the 8-bit label
// store with distinct out and in families.
type DirectedIndex struct {
	store[uint8]
}

// Query returns the exact directed distance from s to t, or Unreachable.
func (ix *DirectedIndex) Query(s, t int32) int { return int(ix.distance(s, t)) }

// DirectedOptions configures BuildDirected.
type DirectedOptions struct {
	// Ordering ranks vertices on the underlying undirected structure
	// (total degree); Degree is the paper's default.
	Ordering order.Strategy
	// Seed drives ordering tie-breaks.
	Seed uint64
	// CustomOrder, if non-nil, overrides Ordering.
	CustomOrder []int32
	// StorePaths records a parent pointer per label entry so Path
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

	ix := &DirectedIndex{}
	ix.setOrder(VariantDirected, perm)
	ix.out = flatten(db.outV, db.outD, db.outP)
	ix.in = flatten(db.inV, db.inD, db.inP)
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
