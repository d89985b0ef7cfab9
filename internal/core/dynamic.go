package core

import (
	"fmt"
	"slices"
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

	// b is the builder that built the labels. Inserts resume its pruned
	// BFS along its one sweep, which follows adj; lab is that sweep's
	// label family: labels by rank, sorted by hub rank ascending.
	b   *builder[uint8]
	lab *growing[uint8]

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
	// byte-identical to sequential). The builder stays with the index:
	// inserts resume its sequential bfs over the growable adjacency, with
	// label changes logged so a failed insert can be rolled back.
	n := len(perm)
	lab := newGrowing[uint8](n, false)
	b := newBuilder(opt, nil, sweep[uint8]{h.Neighbors, lab, lab})
	if err := b.run(EffectiveWorkers(opt.Workers)); err != nil {
		return nil, err
	}

	di := &DynamicIndex{
		n:    n,
		perm: append([]int32(nil), perm...),
		rank: order.RankOf(perm),
		adj:  make([][]int32, n),
		b:    b,
		lab:  lab,
	}
	for v := int32(0); int(v) < n; v++ {
		di.adj[v] = append([]int32(nil), h.Neighbors(v)...)
	}
	b.sweeps[0].next = func(u int32) []int32 { return di.adj[u] }
	lab.logging = true
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
	p.AddMerge(int64(len(di.lab.v[di.rank[s]])+len(di.lab.v[di.rank[t]])), elapsed)
	return int64(d)
}

func (di *DynamicIndex) queryRank(rs, rt int32) int {
	best := infQuery
	av, ad := di.lab.v[rs], di.lab.d[rs]
	bv, bd := di.lab.v[rt], di.lab.d[rt]
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
// queries remain exact: InsertEdges of the one edge.
func (di *DynamicIndex) InsertEdge(a, b int32) (updated int, err error) {
	return di.InsertEdges([]graph.Edge{{U: a, V: b}})
}

// InsertEdges adds the undirected edges in order and repairs the labels
// so queries remain exact. Self-loops and edges already present, before
// the call or earlier in it, are no-ops. It returns the number of label
// entries added or decreased. The batch applies whole or not at all: an
// edge out of range changes nothing, and an insert that fails
// (ErrDiameterTooLarge) restores every label the batch touched and
// drops every edge it added.
func (di *DynamicIndex) InsertEdges(edges []graph.Edge) (updated int, err error) {
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= di.n || e.V < 0 || int(e.V) >= di.n {
			return 0, fmt.Errorf("core: edge (%d,%d) out of range [0,%d)", e.U, e.V, di.n)
		}
	}
	var added [][2]int32 // the new edges, by rank
	for _, e := range edges {
		ra, rb := di.rank[e.U], di.rank[e.V]
		if ra == rb {
			continue
		}
		if _, dup := slices.BinarySearch(di.adj[ra], rb); dup {
			continue
		}
		di.adj[ra] = insertSorted(di.adj[ra], rb)
		di.adj[rb] = insertSorted(di.adj[rb], ra)
		added = append(added, [2]int32{ra, rb})
		var n int
		if n, err = di.repair(ra, rb); err != nil {
			break
		}
		updated += n
	}
	if err != nil {
		di.lab.rollback()
		for _, e := range added {
			di.adj[e[0]] = removeSorted(di.adj[e[0]], e[1])
			di.adj[e[1]] = removeSorted(di.adj[e[1]], e[0])
		}
		return 0, err
	}
	di.lab.log = di.lab.log[:0]
	return updated, nil
}

// repair resumes the pruned BFS of every hub of both endpoints of the
// new edge {ra, rb}, in rank order, entered at the other endpoint one
// hop past the hub. Its label changes are logged for rollback.
func (di *DynamicIndex) repair(ra, rb int32) (updated int, err error) {
	type seedEntry struct {
		root  int32
		start int32
		d     int
	}
	lab := di.lab
	var seeds []seedEntry
	for i, r := range lab.v[ra] {
		seeds = append(seeds, seedEntry{root: r, start: rb, d: int(lab.d[ra][i]) + 1})
	}
	for i, r := range lab.v[rb] {
		seeds = append(seeds, seedEntry{root: r, start: ra, d: int(lab.d[rb][i]) + 1})
	}
	sort.SliceStable(seeds, func(i, j int) bool { return seeds[i].root < seeds[j].root })
	for _, s := range seeds {
		if s.d > MaxDist {
			return updated, ErrDiameterTooLarge
		}
		added, _, err := di.b.bfs(s.root, s.start, uint8(s.d), &di.b.sweeps[0])
		if err != nil {
			return updated, err
		}
		updated += int(added)
	}
	return updated, nil
}

// ComputeStats scans the dynamic index and returns summary statistics.
func (di *DynamicIndex) ComputeStats() Stats {
	st := Stats{Variant: VariantDynamic, NumVertices: di.n}
	sizes := make([]int, di.n)
	for r, l := range di.lab.v {
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
	applyHubStats(&st, di.n, di.lab.v...)
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
	ix.out = flatten(di.lab.v, di.lab.d, nil)
	ix.in = ix.out
	return ix
}

func insertSorted(s []int32, v int32) []int32 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

func removeSorted(s []int32, v int32) []int32 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Delete(s, i, i+1)
}
