package core

import (
	"fmt"
	"math"

	"pll/internal/graph"
	"pll/internal/order"
	"pll/internal/rng"
)

// InfWeight32 is the in-label encoding of "unreachable" for weighted
// indexes, which use 32-bit distances instead of the 8-bit distances of
// the unweighted index.
const InfWeight32 uint32 = math.MaxUint32

// UnreachableW is returned by WeightedIndex.Query for disconnected pairs.
const UnreachableW = uint64(math.MaxUint64)

// WeightedIndex is the §6 "Weighted Graphs" variant: identical labeling
// framework, but labels are produced by pruned Dijkstra searches and
// store 32-bit distances — the 32-bit instance of the label store.
// Bit-parallel labeling does not apply (§6).
type WeightedIndex struct {
	store[uint32]
}

// Query returns the exact weighted s-t distance, or UnreachableW.
func (ix *WeightedIndex) Query(s, t int32) uint64 {
	d := ix.distance(s, t)
	if d == Unreachable {
		return UnreachableW
	}
	return uint64(d)
}

// WeightedOptions configures BuildWeighted.
type WeightedOptions struct {
	// Ordering selects the vertex order; Degree (on the unweighted
	// structure) is the default, as in the unweighted case.
	Ordering order.Strategy
	// Seed drives ordering tie-breaks.
	Seed uint64
	// CustomOrder, if non-nil, overrides Ordering.
	CustomOrder []int32
	// StorePaths records a parent pointer per label entry so Path
	// can reconstruct minimum-weight paths (§6).
	StorePaths bool
	// Workers parallelizes the pruned Dijkstra labeling (see
	// Options.Workers); the index is byte-identical regardless of the
	// worker count. 0 selects GOMAXPROCS.
	Workers int
}

// infWeight is the scratch encoding of "not reached" during pruned
// Dijkstra searches (label entries themselves stay within 32 bits).
const infWeight = uint64(math.MaxUint64)

// BuildWeighted constructs a pruned-landmark-labeling index for a
// weighted undirected graph by pruned Dijkstra searches. Distances along
// any shortest path must fit in 32 bits.
func BuildWeighted(g *graph.Weighted, opt WeightedOptions) (*WeightedIndex, error) {
	n := g.NumVertices()
	perm := opt.CustomOrder
	if perm == nil {
		perm = order.Compute(g.Unweighted(), opt.Ordering, opt.Seed)
	} else if len(perm) != n {
		return nil, fmt.Errorf("core: CustomOrder length %d != n %d", len(perm), n)
	}
	h, err := g.Relabel(perm)
	if err != nil {
		return nil, fmt.Errorf("core: invalid CustomOrder: %w", err)
	}

	wb := newWgtBuilder(h, opt.StorePaths)
	if workers := EffectiveWorkers(opt.Workers); workers > 1 {
		err = wb.runParallel(workers)
	} else {
		err = wb.runSequential()
	}
	if err != nil {
		return nil, err
	}

	ix := &WeightedIndex{}
	ix.setOrder(VariantWeighted, perm)
	ix.out = flatten(wb.labV, wb.labD, wb.labP)
	ix.in = ix.out
	return ix, nil
}

// wgtBuilder holds the growing labels and the sequential-search scratch
// of one weighted construction run.
type wgtBuilder struct {
	h *graph.Weighted // rank-relabeled graph
	n int

	labV [][]int32
	labD [][]uint32
	labP [][]int32 // parents; nil unless storing paths

	storePaths bool
	sc         wgtScratch

	// Per-vertex marks for path-storing batch replays (parallel_weighted.go).
	candD      []uint32
	candPruned []bool
}

// wgtScratch is the per-search scratch of one pruned Dijkstra.
type wgtScratch struct {
	dist    []uint64
	par     []int32 // nil unless storing paths
	rootLab []uint64
	visited []int32
	heap    wHeap
}

func newWgtScratch(n int, storePaths bool) *wgtScratch {
	sc := &wgtScratch{
		dist:    make([]uint64, n),
		rootLab: make([]uint64, n+1),
		visited: make([]int32, 0, 1024),
	}
	if storePaths {
		sc.par = make([]int32, n)
	}
	for i := range sc.dist {
		sc.dist[i] = infWeight
	}
	for i := range sc.rootLab {
		sc.rootLab[i] = infWeight
	}
	return sc
}

func (sc *wgtScratch) reset(rootLabelVertices []int32) {
	for _, v := range sc.visited {
		sc.dist[v] = infWeight
	}
	for _, w := range rootLabelVertices {
		sc.rootLab[w] = infWeight
	}
	sc.visited = sc.visited[:0]
	sc.heap = sc.heap[:0]
}

func newWgtBuilder(h *graph.Weighted, storePaths bool) *wgtBuilder {
	n := h.NumVertices()
	wb := &wgtBuilder{
		h: h, n: n,
		labV:       make([][]int32, n),
		labD:       make([][]uint32, n),
		storePaths: storePaths,
		sc:         *newWgtScratch(n, storePaths),
	}
	if storePaths {
		wb.labP = make([][]int32, n)
	}
	return wb
}

func (wb *wgtBuilder) runSequential() error {
	for vk := int32(0); int(vk) < wb.n; vk++ {
		if err := wb.prunedDijkstra(vk); err != nil {
			return err
		}
	}
	return nil
}

// prunedDijkstra runs one pruned Dijkstra from vk, appending labels.
func (wb *wgtBuilder) prunedDijkstra(vk int32) error {
	sc := &wb.sc
	lv, ld := wb.labV[vk], wb.labD[vk]
	for i, w := range lv {
		sc.rootLab[w] = uint64(ld[i])
	}
	sc.visited = sc.visited[:0]
	sc.heap = sc.heap[:0]
	sc.dist[vk] = 0
	if sc.par != nil {
		sc.par[vk] = -1
	}
	sc.visited = append(sc.visited, vk)
	sc.heap.push(wItem{0, vk})
	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		u, d := it.v, it.dist
		if d != sc.dist[u] {
			continue // stale entry
		}
		// Prune test: scan L(u) against the root-label array.
		pruned := false
		uv, ud := wb.labV[u], wb.labD[u]
		for i, w := range uv {
			if tw := sc.rootLab[w]; tw != infWeight && tw+uint64(ud[i]) <= d {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		if d > uint64(InfWeight32)-1 {
			sc.reset(lv)
			return fmt.Errorf("core: weighted distance %d exceeds 32-bit label budget", d)
		}
		wb.labV[u] = append(wb.labV[u], vk)
		wb.labD[u] = append(wb.labD[u], uint32(d))
		if wb.labP != nil {
			wb.labP[u] = append(wb.labP[u], sc.par[u])
		}
		ws := wb.h.Weights(u)
		for i, w := range wb.h.Neighbors(u) {
			nd := d + uint64(ws[i])
			if nd < sc.dist[w] {
				if sc.dist[w] == infWeight {
					sc.visited = append(sc.visited, w)
				}
				sc.dist[w] = nd
				if sc.par != nil {
					sc.par[w] = u
				}
				sc.heap.push(wItem{nd, w})
			}
		}
	}
	sc.reset(lv)
	return nil
}

// wItem and wHeap form a lazy-deletion binary min-heap for the pruned
// Dijkstra searches.
type wItem struct {
	dist uint64
	v    int32
}

type wHeap []wItem

func (h *wHeap) push(it wItem) {
	*h = append(*h, it)
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

func (h *wHeap) pop() wItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && (*h)[l].dist < (*h)[small].dist {
			small = l
		}
		if r < last && (*h)[r].dist < (*h)[small].dist {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// randPairs is a shared test/experiment helper that samples k vertex
// pairs uniformly with a deterministic seed.
func randPairs(n int, k int, seed uint64) [][2]int32 {
	r := rng.New(seed)
	pairs := make([][2]int32, k)
	for i := range pairs {
		pairs[i] = [2]int32{r.Int31n(int32(n)), r.Int31n(int32(n))}
	}
	return pairs
}
