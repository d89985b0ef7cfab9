package core

import (
	"fmt"
	"math"

	"pll/internal/graph"
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

// infWeight is the scratch encoding of "not reached" during pruned
// Dijkstra searches (label entries themselves stay within 32 bits).
const infWeight = uint64(math.MaxUint64)

// BuildWeighted constructs a pruned-landmark-labeling index for a
// weighted undirected graph by pruned Dijkstra searches. Distances along
// any shortest path must fit in 32 bits. NumBitParallel is ignored:
// bit-parallel labeling does not apply (§6).
func BuildWeighted(g *graph.Weighted, opt Options) (*WeightedIndex, error) {
	h, perm, err := rankOrder(g, g.Unweighted, opt)
	if err != nil {
		return nil, err
	}
	lab := newGrowing[uint32](len(perm), opt.StorePaths)
	if err := newBuilder(opt, h.Weights, sweep[uint32]{h.Neighbors, lab, lab}).run(EffectiveWorkers(opt.Workers)); err != nil {
		return nil, err
	}
	ix := &WeightedIndex{}
	ix.setOrder(VariantWeighted, perm)
	ix.out = flatten(lab.v, lab.d, lab.p)
	ix.in = ix.out
	return ix, nil
}

// overBudget reports whether a settled distance cannot be stored in a
// D-wide label entry (whose all-ones value means unreachable).
func overBudget[D dist](d uint64) bool { return d > uint64(infOf[D]())-1 }

func errWeightBudget(d uint64) error {
	return fmt.Errorf("core: weighted distance %d exceeds 32-bit label budget", d)
}

// startDijkstra seeds a search from vk.
func (sc *scratch[D]) startDijkstra(vk int32) {
	sc.dist[vk] = 0
	sc.par[vk] = -1
	sc.seen = append(sc.seen[:0], vk)
	sc.heap = append(sc.heap[:0], wItem{0, vk})
}

// settle pops the next vertex whose heap entry is current (the heap
// uses lazy deletion), reporting false once the heap is empty.
func (sc *scratch[D]) settle() (int32, uint64, bool) {
	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		if it.dist == sc.dist[it.v] {
			return it.v, it.dist, true
		}
	}
	return 0, 0, false
}

// relax scans the arcs of the settled vertex u at distance d.
func (b *builder[D]) relax(sc *scratch[D], sw *sweep[D], u int32, d uint64) {
	arcs := sw.next(u)
	ws, dist := b.weights(u)[:len(arcs)], sc.dist
	for i, w := range arcs {
		nd := d + uint64(ws[i])
		if dw := dist[w]; nd < dw {
			if dw == infWeight {
				sc.seen = append(sc.seen, w)
			}
			dist[w] = nd
			if b.paths {
				sc.par[w] = u
			}
			sc.heap.push(wItem{nd, w})
		}
	}
}

// dijkstra runs one pruned Dijkstra from vk along sw, appending labels.
func (b *builder[D]) dijkstra(vk int32, sw *sweep[D]) (added, visited int64, err error) {
	sc := b.sc
	lv := sc.load(sw.root, vk)
	sc.startDijkstra(vk)
	for u, d, ok := sc.settle(); ok; u, d, ok = sc.settle() {
		if covers(sc.rootLab, sw.scan, u, d) {
			continue
		}
		if overBudget[D](d) {
			err = errWeightBudget(d)
			break
		}
		sw.scan.add(u, vk, D(d), sc.par)
		added++
		b.relax(sc, sw, u, d)
	}
	visited = int64(len(sc.seen))
	sc.reset(lv)
	return added, visited, err
}

// relaxedDijkstra is the batch search of parallel.go for weighted
// builds: root vk's pruned Dijkstra against the frozen labels, writing
// nothing but sc and cands. needSeq reports a settled distance beyond
// the 32-bit label budget. Unlike BFS, no at-the-budget-edge guard is
// needed: the sequential budget check fires on the settled (exact)
// distance of a non-pruned pop, and any vertex the sequential search
// settles non-pruned beyond the budget is settled at the same exact
// distance here (the frozen labels prune less), so this search always
// overflows whenever the sequential one would.
func (b *builder[D]) relaxedDijkstra(vk int32, sw *sweep[D], sc *scratch[D], cands []cand[D]) (_ []cand[D], needSeq bool) {
	lv := sc.load(sw.root, vk)
	sc.startDijkstra(vk)
	for u, d, ok := sc.settle(); ok; u, d, ok = sc.settle() {
		if covers(sc.rootLab, sw.scan, u, d) {
			if b.paths {
				cands = append(cands, cand[D]{v: u, pruned: true})
			}
			continue
		}
		if overBudget[D](d) {
			needSeq = true
			break
		}
		cands = append(cands, cand[D]{v: u, d: D(d)})
		b.relax(sc, sw, u, d)
	}
	sc.reset(lv)
	return cands, needSeq
}

// replayDijkstra is the path-storing merge for weighted builds: it
// reproduces the exact sequential heap discipline (Dijkstra-tree parents
// depend on pop and relaxation order) with candidate-mark prune
// decisions plus a label-tail scan.
func (b *builder[D]) replayDijkstra(vk, batchStart int32, sw *sweep[D]) error {
	sc := b.sc
	lv := sc.load(sw.root, vk)
	sc.startDijkstra(vk)
	var err error
	for u, d, ok := sc.settle(); ok; u, d, ok = sc.settle() {
		if b.replayPruned(sw, u, batchStart, d) {
			continue
		}
		if overBudget[D](d) {
			// Unreachable: the relaxed search settles every vertex at a
			// distance <= the replay's, so it would have overflowed
			// first and taken the fallback path.
			err = errWeightBudget(d)
			break
		}
		sw.scan.add(u, vk, D(d), sc.par)
		b.relax(sc, sw, u, d)
	}
	sc.reset(lv)
	return err
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
