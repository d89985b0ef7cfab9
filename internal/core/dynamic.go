package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pll/internal/graph"
	"pll/internal/order"
	"pll/internal/trace"
)

// DynamicIndex is an incrementally updatable pruned-landmark-labeling
// index: edges can be inserted after construction and queries stay
// exact. This implements the paper's stated direction of handling
// evolving networks (§8), following the resumed-pruned-BFS technique
// of the authors' follow-up work (Akiba, Iwata, Yoshida, WWW 2014):
// inserting edge (a,b) resumes a pruned BFS from every hub of L(a)
// through b and vice versa, inserting or decreasing label entries.
// After updates the index remains a correct 2-hop cover; it may lose
// minimality (stale over-estimates are kept but never win a merge join).
//
// Bit-parallel labels are not used: they cannot be patched incrementally.
type DynamicIndex struct {
	n    int
	perm []int32
	rank []int32

	// adjacency by rank, growable.
	adj [][]int32

	// labels by rank, sorted by hub rank ascending.
	labV [][]int32
	labD [][]uint8

	// scratch for resumed BFSs.
	dist    []uint8
	rootLab []uint8
	queue   []int32

	batchPool sync.Pool // recycles *sourceScratch[uint8] for DistanceFrom
}

// BuildDynamic constructs a dynamic index. Options follow Build except
// that bit-parallel labeling and path storage are unavailable.
func BuildDynamic(g *graph.Graph, opt Options) (*DynamicIndex, error) {
	if opt.NumBitParallel != 0 {
		return nil, fmt.Errorf("core: DynamicIndex does not support bit-parallel labels")
	}
	if opt.StorePaths {
		return nil, fmt.Errorf("core: DynamicIndex does not support path storage")
	}
	h, perm, err := rankOrder(g, func() *graph.Graph { return g }, opt)
	if err != nil {
		return nil, err
	}
	// The initial build is the shared pruned labeling (batch-parallel,
	// byte-identical to sequential); incremental updates stay sequential
	// — resumed BFSs patch labels in place.
	n := len(perm)
	lab := newGrowing[uint8](n, false)
	if err := newBuilder(opt, nil, sweep[uint8]{h.Neighbors, lab, lab}).run(EffectiveWorkers(opt.Workers)); err != nil {
		return nil, err
	}

	di := &DynamicIndex{
		n:       n,
		perm:    append([]int32(nil), perm...),
		rank:    order.RankOf(perm),
		adj:     make([][]int32, n),
		labV:    lab.v,
		labD:    lab.d,
		dist:    make([]uint8, n),
		rootLab: make([]uint8, n+1),
		queue:   make([]int32, 0, 1024),
	}
	for v := int32(0); int(v) < n; v++ {
		di.adj[v] = append([]int32(nil), h.Neighbors(v)...)
	}
	for i := range di.dist {
		di.dist[i] = InfDist
	}
	for i := range di.rootLab {
		di.rootLab[i] = InfDist
	}
	return di, nil
}

// NumVertices returns the number of vertices the index covers.
func (di *DynamicIndex) NumVertices() int { return di.n }

// Query returns the exact s-t distance under all edges inserted so far,
// or Unreachable.
func (di *DynamicIndex) Query(s, t int32) int {
	if s == t {
		return 0
	}
	return di.queryRank(di.rank[s], di.rank[t])
}

// Distance is Query in the Oracle convention (int64). A non-nil
// profile records the merge: its duration and both labels' entries.
func (di *DynamicIndex) Distance(s, t int32, p *trace.QueryProfile) int64 {
	if p == nil {
		return int64(di.Query(s, t))
	}
	start := time.Now()
	d := di.Query(s, t)
	elapsed := time.Since(start)
	p.AddMerge(int64(len(di.labV[di.rank[s]])+len(di.labV[di.rank[t]])), elapsed)
	return int64(d)
}

func (di *DynamicIndex) queryRank(rs, rt int32) int {
	best := infQuery
	av, ad := di.labV[rs], di.labD[rs]
	bv, bd := di.labV[rt], di.labD[rt]
	i, j := 0, 0
	for i < len(av) && j < len(bv) {
		switch {
		case av[i] == bv[j]:
			if d := int(ad[i]) + int(bd[j]); d < best {
				best = d
			}
			i++
			j++
		case av[i] < bv[j]:
			i++
		default:
			j++
		}
	}
	if best >= infQuery {
		return Unreachable
	}
	return best
}

// InsertEdge adds the undirected edge {a, b} and repairs the labels so
// queries remain exact. Inserting an existing edge or a self-loop is a
// no-op. It returns the number of label entries added or decreased.
func (di *DynamicIndex) InsertEdge(a, b int32) (updated int, err error) {
	if a < 0 || int(a) >= di.n || b < 0 || int(b) >= di.n {
		return 0, fmt.Errorf("core: edge (%d,%d) out of range [0,%d)", a, b, di.n)
	}
	if a == b {
		return 0, nil
	}
	ra, rb := di.rank[a], di.rank[b]
	if containsSorted(di.adj[ra], rb) {
		return 0, nil
	}
	di.adj[ra] = insertSorted(di.adj[ra], rb)
	di.adj[rb] = insertSorted(di.adj[rb], ra)

	// Resume pruned BFSs from every hub of both endpoints, in rank
	// order (labels are stored sorted by rank, so plain iteration is
	// already rank order).
	type seedEntry struct {
		root  int32
		start int32
		d     int
	}
	var seeds []seedEntry
	for i, r := range di.labV[ra] {
		seeds = append(seeds, seedEntry{root: r, start: rb, d: int(di.labD[ra][i]) + 1})
	}
	for i, r := range di.labV[rb] {
		seeds = append(seeds, seedEntry{root: r, start: ra, d: int(di.labD[rb][i]) + 1})
	}
	sort.SliceStable(seeds, func(i, j int) bool { return seeds[i].root < seeds[j].root })
	for _, s := range seeds {
		if s.d > MaxDist {
			return updated, ErrDiameterTooLarge
		}
		n, err := di.resumePBFS(s.root, s.start, uint8(s.d))
		if err != nil {
			return updated, err
		}
		updated += n
	}
	return updated, nil
}

// resumePBFS continues root's pruned BFS from start at distance d,
// inserting or decreasing (root, ·) entries.
func (di *DynamicIndex) resumePBFS(root, start int32, d uint8) (updated int, err error) {
	// Load the T array with root's current label.
	lv, ld := di.labV[root], di.labD[root]
	for i, w := range lv {
		di.rootLab[w] = ld[i]
	}
	que := di.queue[:0]
	que = append(que, start)
	di.dist[start] = d
	for qh := 0; qh < len(que); qh++ {
		u := que[qh]
		du := di.dist[u]
		// Prune when current labels already certify a distance <= du
		// between root and u.
		if di.coveredBy(u, du) {
			continue
		}
		if di.upsertLabel(u, root, du) {
			updated++
		}
		nd := int(du) + 1
		for _, w := range di.adj[u] {
			if di.dist[w] == InfDist && w != root {
				if nd > MaxDist {
					di.resetResume(que, lv)
					return updated, ErrDiameterTooLarge
				}
				di.dist[w] = uint8(nd)
				que = append(que, w)
			}
		}
	}
	di.resetResume(que, lv)
	di.queue = que[:0]
	return updated, nil
}

func (di *DynamicIndex) resetResume(visited []int32, rootLabelVertices []int32) {
	for _, v := range visited {
		di.dist[v] = InfDist
	}
	for _, w := range rootLabelVertices {
		di.rootLab[w] = InfDist
	}
}

// coveredBy reports whether labels certify d(root, u) <= d via the
// preloaded T array.
func (di *DynamicIndex) coveredBy(u int32, d uint8) bool {
	uv, ud := di.labV[u], di.labD[u]
	for i, w := range uv {
		if tw := di.rootLab[w]; tw != InfDist && int(tw)+int(ud[i]) <= int(d) {
			return true
		}
	}
	return false
}

// upsertLabel inserts (root, d) into u's sorted label, or decreases an
// existing entry. It reports whether anything changed.
func (di *DynamicIndex) upsertLabel(u, root int32, d uint8) bool {
	lv := di.labV[u]
	i := sort.Search(len(lv), func(i int) bool { return lv[i] >= root })
	if i < len(lv) && lv[i] == root {
		if di.labD[u][i] <= d {
			return false
		}
		di.labD[u][i] = d
		return true
	}
	di.labV[u] = append(di.labV[u], 0)
	copy(di.labV[u][i+1:], di.labV[u][i:])
	di.labV[u][i] = root
	di.labD[u] = append(di.labD[u], 0)
	copy(di.labD[u][i+1:], di.labD[u][i:])
	di.labD[u][i] = d
	return true
}

// ComputeStats scans the dynamic index and returns summary statistics.
func (di *DynamicIndex) ComputeStats() Stats {
	st := Stats{Variant: VariantDynamic, NumVertices: di.n}
	sizes := make([]int, di.n)
	for r, l := range di.labV {
		sizes[r] = len(l)
		st.TotalLabelEntries += int64(len(l))
		if len(l) > st.MaxLabelSize {
			st.MaxLabelSize = len(l)
		}
	}
	if di.n > 0 {
		st.AvgLabelSize = float64(st.TotalLabelEntries) / float64(di.n)
	}
	insertionSortQuantiles(sizes, &st.LabelSizeQuantiles)
	applyHubStats(&st, di.n, di.labV...)
	st.NormalLabelBytes = st.TotalLabelEntries * 5 // int32 hub + uint8 dist per entry
	st.IndexBytes = st.NormalLabelBytes + int64(len(di.perm))*8
	return st
}

// Freeze snapshots the dynamic index into a static Index (flattened,
// sentinel-terminated label arrays; no bit-parallel labels). The
// snapshot answers the same queries and can be serialized, memory-mapped
// and verified like any statically built index; further InsertEdge
// calls on the dynamic index do not affect it.
func (di *DynamicIndex) Freeze() *Index {
	ix := &Index{}
	ix.setOrder(VariantDynamic, di.perm)
	ix.out = flatten(di.labV, di.labD, nil)
	ix.in = ix.out
	return ix
}

func containsSorted(s []int32, v int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

func insertSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
