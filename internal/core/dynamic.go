package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
// through b and vice versa, inserting or decreasing label entries. A hub
// whose label already covers the other endpoint is skipped without a
// search. After updates the index remains a correct 2-hop cover; it may
// lose minimality (stale over-estimates are kept but never win a merge
// join).
//
// A DynamicIndex is safe for concurrent use. Readers load the published
// labelView once per call and never lock; writers serialize on mu, and
// each InsertEdges call publishes its whole batch with one atomic store.
//
// Bit-parallel labels are not used: they cannot be patched incrementally.
type DynamicIndex struct {
	n    int
	perm []int32
	rank []int32

	// view is the published version of the labels: labels by rank,
	// sorted by hub rank ascending.
	view atomic.Pointer[labelView[uint8]]

	// mu serializes writers and guards their state. adj is the
	// adjacency by rank, growable. b is the builder that built the
	// labels: inserts resume its pruned BFS along its one sweep, which
	// follows adj. lab is that sweep's label family, the writer's rows:
	// the published ones, except those copied since the last publish.
	// seeds and pins are repair's: the seed list of the edge it repairs,
	// and the edge's two endpoint labels as rank-indexed distance
	// arrays, InfDist where the label has no entry.
	mu    sync.Mutex
	adj   [][]int32
	b     *builder[uint8]
	lab   *growing[uint8]
	seeds []seed
	pins  [2][]uint8

	batchPool sync.Pool // recycles *sourceScratch[uint8] for DistanceFrom
}

// A labelView is one published version of a dynamic index's labels, by
// rank, in chunks of chunkRows rows. Nothing writes a view once it is
// published, so readers read it as plain memory; the writer builds the
// next version from its own row copies (growing.publish), sharing every
// chunk that holds no changed row.
type labelView[D dist] struct {
	chunks []*labelChunk[D]
}

// chunkRows is the number of rows in a labelChunk, the unit a publish
// copies around each changed row. A publish copies n/chunkRows chunk
// pointers plus chunkRows row headers per changed chunk; on perfbench's
// graph (n=25,000, about 25 rows changed per insert) 16 rows left the
// least garbage per insert, against 8 and 32.
const (
	chunkShift = 4
	chunkRows  = 1 << chunkShift
)

type labelChunk[D dist] struct {
	v [chunkRows][]int32
	d [chunkRows][]D
}

// viewOf publishes the rows v, d whole. Each chunk is its own
// allocation, so a replaced chunk and the rows only it holds are freed
// on their own.
func viewOf[D dist](v [][]int32, d [][]D) *labelView[D] {
	vw := &labelView[D]{chunks: make([]*labelChunk[D], (len(v)+chunkRows-1)>>chunkShift)}
	for k := range vw.chunks {
		vw.chunks[k] = new(labelChunk[D])
		vw.chunks[k].fill(v, d, k)
	}
	return vw
}

// fill sets the chunk to rows k·chunkRows onwards of v, d.
func (c *labelChunk[D]) fill(v [][]int32, d [][]D, k int) {
	copy(c.v[:], v[k<<chunkShift:])
	copy(c.d[:], d[k<<chunkShift:])
}

// row returns rank r's hubs and distances in this version.
func (vw *labelView[D]) row(r int32) ([]int32, []D) {
	c := vw.chunks[r>>chunkShift]
	return c.v[r&(chunkRows-1)], c.d[r&(chunkRows-1)]
}

// rows returns this version's first n rows as flat headers.
func (vw *labelView[D]) rows(n int) ([][]int32, [][]D) {
	v := make([][]int32, 0, len(vw.chunks)*chunkRows)
	d := make([][]D, 0, cap(v))
	for _, c := range vw.chunks {
		v, d = append(v, c.v[:]...), append(d, c.d[:]...)
	}
	return v[:n], d[:n]
}

// publish returns the version that follows vw with the writer's changes
// since vw, and hands the changed rows to it: a later change copies them
// again. A chunk is copied once, from the writer's headers, which match
// vw for every row the writer did not change.
func (g *growing[D]) publish(vw *labelView[D]) *labelView[D] {
	next := &labelView[D]{chunks: slices.Clone(vw.chunks)}
	for _, u := range g.touched {
		if k := u >> chunkShift; next.chunks[k] == vw.chunks[k] {
			c := new(labelChunk[D])
			c.fill(g.v, g.d, int(k))
			next.chunks[k] = c
		}
		g.own[u] = false
	}
	g.touched = g.touched[:0]
	return next
}

// discard drops the writer's changes since vw: each changed row goes
// back to its version in vw, which never saw the change.
func (g *growing[D]) discard(vw *labelView[D]) {
	for _, u := range g.touched {
		g.v[u], g.d[u] = vw.row(u)
		g.own[u] = false
	}
	g.touched = g.touched[:0]
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
	// inserts resume its sequential bfs over the growable adjacency, on
	// copies of the rows they change.
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
		pins: [2][]uint8{filled(make([]uint8, n), InfDist), filled(make([]uint8, n), InfDist)},
	}
	for v := int32(0); int(v) < n; v++ {
		di.adj[v] = append([]int32(nil), h.Neighbors(v)...)
	}
	b.sweeps[0].next = func(u int32) []int32 { return di.adj[u] }
	lab.own = make([]bool, n)
	di.view.Store(viewOf(lab.v, lab.d))
	return di, nil
}

// NumVertices returns the number of vertices the index covers.
func (di *DynamicIndex) NumVertices() int { return di.n }

// Query returns the exact s-t distance under all edges inserted so far,
// or Unreachable.
func (di *DynamicIndex) Query(s, t int32) int { return di.query(di.view.Load(), s, t) }

// Distance is Query in the Oracle convention (int64). A non-nil
// profile records the merge: its duration and both labels' entries.
func (di *DynamicIndex) Distance(s, t int32, p *trace.QueryProfile) int64 {
	vw := di.view.Load()
	if p == nil {
		return int64(di.query(vw, s, t))
	}
	start := time.Now()
	d := di.query(vw, s, t)
	elapsed := time.Since(start)
	sv, _ := vw.row(di.rank[s])
	tv, _ := vw.row(di.rank[t])
	p.AddMerge(int64(len(sv)+len(tv)), elapsed)
	return int64(d)
}

// query answers s-t in version vw.
func (di *DynamicIndex) query(vw *labelView[uint8], s, t int32) int {
	if s == t {
		return 0
	}
	return queryRank(vw, di.rank[s], di.rank[t])
}

func queryRank(vw *labelView[uint8], rs, rt int32) int {
	best := infQuery
	av, ad := vw.row(rs)
	bv, bd := vw.row(rt)
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
// drops every edge it added. Readers see the batch whole or not at all:
// its changes go to copied rows, published in one atomic store at the
// end. Concurrent calls run one at a time.
func (di *DynamicIndex) InsertEdges(edges []graph.Edge) (updated int, err error) {
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= di.n || e.V < 0 || int(e.V) >= di.n {
			return 0, fmt.Errorf("core: edge (%d,%d) out of range [0,%d)", e.U, e.V, di.n)
		}
	}
	di.mu.Lock()
	defer di.mu.Unlock()
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
	vw := di.view.Load()
	if err != nil {
		di.lab.discard(vw)
		for _, e := range added {
			di.adj[e[0]] = removeSorted(di.adj[e[0]], e[1])
			di.adj[e[1]] = removeSorted(di.adj[e[1]], e[0])
		}
		return 0, err
	}
	if len(di.lab.touched) > 0 {
		di.view.Store(di.lab.publish(vw))
	}
	return updated, nil
}

// A seed is one search an edge insert resumes: hub root's, whose
// distance to endpoint end (0 for a, 1 for b) of the new edge {a, b} is
// dist. The search enters at the other endpoint, dist+1 hops from root.
type seed struct {
	root int32
	dist uint8
	end  uint8
}

// repair resumes the pruned BFS of every hub of both endpoints of the
// new edge {ra, rb}, in rank order, entered at the other endpoint one
// hop past the hub. It changes only the writer's copies of the rows.
//
// A hub whose label already covers the other endpoint within that entry
// distance is skipped without a search, which would prune its entry
// vertex and add nothing. The test is covers with root and entry vertex
// swapped: the hub's label against the entry vertex's, pinned when the
// repair starts. A repair only adds entries or lowers them, so a pin
// over-estimates the live label and a hub it finds covered is covered.
func (di *DynamicIndex) repair(ra, rb int32) (updated int, err error) {
	lab, ends := di.lab, [2]int32{ra, rb}
	// Both rows are sorted by hub rank: merging them orders the seeds by
	// rank, a's first on a tie.
	av, ad, bv, bd := lab.v[ra], lab.d[ra], lab.v[rb], lab.d[rb]
	seeds := di.seeds[:0]
	for i, j := 0, 0; i < len(av) || j < len(bv); {
		if j == len(bv) || i < len(av) && av[i] <= bv[j] {
			seeds = append(seeds, seed{root: av[i], dist: ad[i], end: 0})
			i++
		} else {
			seeds = append(seeds, seed{root: bv[j], dist: bd[j], end: 1})
			j++
		}
	}
	di.seeds = seeds
	// Pin and unpin from the seeds, never from the rows: a search may
	// insert into an endpoint's row in place, once an earlier edge of
	// the call has copied it, shifting the entries under a kept header.
	for _, s := range seeds {
		di.pins[s.end][s.root] = s.dist
	}
	for _, s := range seeds {
		d := int(s.dist) + 1
		if d > MaxDist {
			err = ErrDiameterTooLarge
			break
		}
		if covers(di.pins[1-s.end], lab, s.root, uint64(d)) {
			continue
		}
		var added int64
		if added, _, err = di.b.bfs(s.root, ends[1-s.end], uint8(d), &di.b.sweeps[0]); err != nil {
			break
		}
		updated += int(added)
	}
	for _, s := range seeds {
		di.pins[s.end][s.root] = InfDist
	}
	return updated, err
}

// ComputeStats scans one published version of the dynamic index and
// returns summary statistics.
func (di *DynamicIndex) ComputeStats() Stats {
	st := Stats{Variant: VariantDynamic, NumVertices: di.n}
	v, _ := di.view.Load().rows(di.n)
	sizes := make([]int, di.n)
	for r, l := range v {
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
	applyHubStats(&st, di.n, v...)
	st.NormalLabelBytes = st.TotalLabelEntries * 5 // int32 hub + uint8 dist per entry
	st.IndexBytes = st.NormalLabelBytes + int64(len(di.perm))*8
	return st
}

// Freeze snapshots one published version of the dynamic index into a
// static Index (flattened, sentinel-terminated label arrays; no
// bit-parallel labels). The snapshot answers the same queries and can be
// serialized, memory-mapped and verified like any statically built
// index; further InsertEdge calls on the dynamic index do not affect it.
func (di *DynamicIndex) Freeze() *Index {
	ix := &Index{}
	ix.setOrder(VariantDynamic, di.perm)
	v, d := di.view.Load().rows(di.n)
	ix.out = flatten(v, d, nil)
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
