package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pll/internal/graph"
	"pll/internal/order"
)

// Options configures every builder: Build, BuildDirected, BuildWeighted
// and BuildDynamic. Fields that do not apply to a variant are ignored:
// bit-parallel labels exist only for undirected builds (BuildDynamic
// rejects them, and path storage, with an error).
type Options struct {
	// Ordering selects the vertex-ordering strategy (§4.4), computed on
	// the undirected structure of directed and weighted graphs. Default:
	// order.Degree, the paper's default.
	Ordering order.Strategy
	// Seed drives ordering tie-breaks and sampling; fixed seeds give
	// byte-identical indexes.
	Seed uint64
	// NumBitParallel is t, the number of bit-parallel BFSs performed
	// before pruned labeling starts (§5.4). 0 disables bit-parallel
	// labels. The paper uses 16 for small and 64 for large networks.
	NumBitParallel int
	// StorePaths records a parent pointer per label entry so Path
	// can reconstruct shortest paths (§6). Path reconstruction needs
	// every covered pair to have a hub in the *normal* labels, so
	// StorePaths forces NumBitParallel to 0.
	StorePaths bool
	// CustomOrder, if non-nil, overrides Ordering with an explicit
	// permutation perm[rank] = vertex. Used by experiments and tests.
	CustomOrder []int32
	// CollectStats, if non-nil, receives per-search construction
	// counters (the instrumentation behind Figures 3 and 4).
	CollectStats *BuildStats
	// Workers parallelizes construction across goroutines: the
	// bit-parallel prelude (the §4.5 thread-level-parallelism note; the
	// BFSs are mutually independent) and the pruned labeling phase
	// itself, which runs rank-ordered batches of pruned searches against
	// the frozen labels of all earlier ranks and merges them
	// deterministically (see parallel.go). The resulting index is
	// byte-identical to a sequential build for every option combination.
	// 0 selects GOMAXPROCS; 1 (or negative) forces the sequential code
	// path. Builds that collect per-search statistics (CollectStats)
	// always run the pruned phase sequentially, since the relaxed batch
	// searches would skew the visited counters.
	Workers int
}

// BuildStats records what each pruned search did during construction.
// Directed builds record two searches per root, forward then backward.
type BuildStats struct {
	// LabelsPerBFS[k] is the number of label entries added by the k-th
	// search overall (bit-parallel roots count the vertices they reached).
	LabelsPerBFS []int64
	// VisitedPerBFS[k] is the number of vertices the k-th search
	// visited (labeled or pruned); bit-parallel roots count reached
	// vertices.
	VisitedPerBFS []int64
	// RootRank[k] is the rank of the k-th search's root.
	RootRank []int32
	// IsBitParallel[k] marks roots processed by bit-parallel BFS.
	IsBitParallel []bool
}

// bitParallelWidth is b, the number of neighbor roots packed into one
// machine word (§5: 32 or 64; we always use 64-bit words).
const bitParallelWidth = 64

// Build constructs a pruned-landmark-labeling index for g.
func Build(g *graph.Graph, opt Options) (*Index, error) {
	if opt.NumBitParallel < 0 {
		return nil, fmt.Errorf("core: negative NumBitParallel %d", opt.NumBitParallel)
	}
	h, perm, err := rankOrder(g, func() *graph.Graph { return g }, opt)
	if err != nil {
		return nil, err
	}
	numBP := min(opt.NumBitParallel, len(perm))
	if opt.StorePaths {
		numBP = 0
	}
	lab := newGrowing[uint8](len(perm), opt.StorePaths)
	b := newBuilder(opt, nil, sweep[uint8]{h.Neighbors, lab, lab})
	workers := EffectiveWorkers(opt.Workers)
	if err := b.runBitParallelPhase(h, numBP, workers); err != nil {
		return nil, err
	}
	if err := b.run(workers); err != nil {
		return nil, err
	}
	ix := &Index{}
	ix.setOrder(VariantUndirected, perm)
	ix.bitParallel = b.bp
	ix.out = flatten(lab.v, lab.d, lab.p)
	ix.in = ix.out
	return ix, nil
}

// relabeler is a graph type the ordering prelude can relabel.
type relabeler[G any] interface {
	NumVertices() int
	Relabel(perm []int32) (G, error)
}

// rankOrder is the ordering prelude of every build: it ranks g's
// vertices — opt.CustomOrder, or order.Compute over the undirected
// structure shape returns — and relabels g so that vertex IDs *are*
// ranks: labels then store ranks and come out sorted for free (§4.5).
func rankOrder[G relabeler[G]](g G, shape func() *graph.Graph, opt Options) (h G, perm []int32, err error) {
	perm = opt.CustomOrder
	if perm == nil {
		perm = order.Compute(shape(), opt.Ordering, opt.Seed)
	} else if len(perm) != g.NumVertices() {
		return h, nil, fmt.Errorf("core: CustomOrder length %d != n %d", len(perm), g.NumVertices())
	}
	if h, err = g.Relabel(perm); err != nil {
		return h, nil, fmt.Errorf("core: invalid CustomOrder: %w", err)
	}
	return h, perm, nil
}

// growing is one label family under construction, indexed by rank:
// hub ranks, distances and (when storing paths) search-tree parents.
// Roots run in rank order, so a build's appends keep every label sorted
// by hub.
type growing[D dist] struct {
	v [][]int32
	d [][]D
	p [][]int32 // nil unless storing paths

	// A dynamic index sets own, so add copies row u before its first
	// change since the last publish (touched lists those rows) and a
	// published labelView never sees a write. Builds leave own nil.
	own     []bool
	touched []int32
}

func newGrowing[D dist](n int, paths bool) *growing[D] {
	g := &growing[D]{v: make([][]int32, n), d: make([][]D, n)}
	if paths {
		g.p = make([][]int32, n)
	}
	return g
}

// add appends the entry (hub, d) to u's label, with u's search-tree
// parent par[u] when storing paths (par is read only then). Only a
// search resumed by DynamicIndex.InsertEdge, which stores no paths, can
// meet a label whose last hub is not below hub: the entry then goes in
// place, or lowers the existing entry for hub (which the prune test
// guarantees is above d).
func (g *growing[D]) add(u, hub int32, d D, par []int32) {
	if g.own != nil && !g.own[u] {
		g.copyRow(u)
	}
	lv := g.v[u]
	if n := len(lv); n > 0 && lv[n-1] >= hub {
		i, found := slices.BinarySearch(lv, hub)
		if found {
			g.d[u][i] = d
		} else {
			g.v[u] = slices.Insert(lv, i, hub)
			g.d[u] = slices.Insert(g.d[u], i, d)
		}
	} else {
		g.v[u] = append(lv, hub)
		g.d[u] = append(g.d[u], d)
		if g.p != nil {
			g.p[u] = append(g.p[u], par[u])
		}
	}
}

// copyRow gives the writer its own copy of row u, with room for a few
// more entries, and marks it touched. Dynamic labels store no parents.
func (g *growing[D]) copyRow(u int32) {
	n := len(g.v[u])
	c := n + n/8 + 4
	g.v[u] = append(make([]int32, 0, c), g.v[u]...)
	g.d[u] = append(make([]D, 0, c), g.d[u]...)
	g.own[u] = true
	g.touched = append(g.touched, u)
}

// sweep is one pruned search direction: the arcs it follows, the label
// family the root-label array T is loaded from, and the family the
// search tests and extends. Undirected, dynamic and weighted builds run
// one sweep whose two families are the same; directed builds run a
// forward sweep (out-arcs, L_OUT(root) against L_IN) and then a
// backward one (in-arcs, L_IN(root) against L_OUT).
type sweep[D dist] struct {
	next       func(int32) []int32
	root, scan *growing[D]
}

// builder is one construction run. The variants differ only in data:
// the distance width D, the sweeps, weights (which select pruned
// Dijkstra over BFS) and the bit-parallel labels only undirected builds
// compute.
type builder[D dist] struct {
	n       int
	sweeps  []sweep[D]
	weights func(int32) []uint32 // arc weights aligned with next; nil for BFS builds
	paths   bool

	used []bool      // vertex consumed as a bit-parallel root or neighbor
	bp   bitParallel // filled by runBitParallelPhase

	// sc is the scratch of the sequential searches and of the batch
	// merges; concurrent batch searches use their own (parallel.go).
	sc *scratch[D]

	// Per-vertex marks scattered from a batch search's candidates during
	// a path-storing replay (parallel.go); nil otherwise.
	candD      []D
	candPruned []bool

	stats *BuildStats
}

func newBuilder[D dist](opt Options, weights func(int32) []uint32, sweeps ...sweep[D]) *builder[D] {
	n := len(sweeps[0].root.v)
	return &builder[D]{
		n: n, sweeps: sweeps, weights: weights, paths: opt.StorePaths,
		used:  make([]bool, n),
		stats: opt.CollectStats,
	}
}

// scratch is the per-search state of one pruned search, re-initialized
// incrementally (§4.5 "Initialization"): rootLab is the array T of
// distances from the current root's label, hops the BFS distance array
// P (dist for Dijkstra, whose tentative distances may pass 32 bits), and
// the bp* arrays mirror the root's bit-parallel label entries.
type scratch[D dist] struct {
	rootLab []D
	par     []int32  // search-tree parents, used only when storing paths
	seen    []int32  // the BFS queue, or every vertex Dijkstra reached
	hops    []uint8  // BFS builds
	dist    []uint64 // Dijkstra builds
	heap    wHeap
	bpDv    []uint8
	bpS1v   []uint64
	bpS0v   []uint64
}

func (b *builder[D]) newScratch() *scratch[D] {
	n, numBP := b.n, b.bp.numBP
	sc := &scratch[D]{
		rootLab: filled(make([]D, n+1), infOf[D]()), // +1: sentinel rank may be probed
		par:     make([]int32, n),
		seen:    make([]int32, 0, 1024),
		bpDv:    make([]uint8, numBP),
		bpS1v:   make([]uint64, numBP),
		bpS0v:   make([]uint64, numBP),
	}
	if b.weights != nil {
		sc.dist = filled(make([]uint64, n), infWeight)
	} else {
		sc.hops = filled(make([]uint8, n), InfDist)
	}
	return sc
}

func filled[T any](s []T, v T) []T {
	for i := range s {
		s[i] = v
	}
	return s
}

// load fills T with rank vk's current label from fam (§4.5 "Querying")
// and returns the hubs to clear afterwards.
func (sc *scratch[D]) load(fam *growing[D], vk int32) []int32 {
	lv, ld := fam.v[vk], fam.d[vk]
	for i, w := range lv {
		sc.rootLab[w] = ld[i]
	}
	return lv
}

// reset restores the scratch to all-unreached by touching only the
// entries the last search wrote; lv are the hubs T was loaded from.
func (sc *scratch[D]) reset(lv []int32) {
	if sc.hops != nil {
		for _, v := range sc.seen {
			sc.hops[v] = InfDist
		}
	} else {
		for _, v := range sc.seen {
			sc.dist[v] = infWeight
		}
	}
	for _, w := range lv {
		sc.rootLab[w] = infOf[D]()
	}
	sc.seen = sc.seen[:0]
	sc.heap = sc.heap[:0]
}

// mirrorBP loads the root's bit-parallel label entries into sc.
func (b *builder[D]) mirrorBP(sc *scratch[D], vk int32) {
	bp := &b.bp
	ov := int(vk) * bp.numBP
	for i := 0; i < bp.numBP; i++ {
		sc.bpDv[i] = bp.bpDist[ov+i]
		sc.bpS1v[i] = bp.bpS1[ov+i]
		sc.bpS0v[i] = bp.bpS0[ov+i]
	}
}

// pruned reports whether u, at distance d from the current root, is
// already covered by existing labels (line 7 of Algorithm 1). The
// root's side of the test lives in sc (T array and BP mirrors), so
// concurrent batch searches can each bring their own.
func (b *builder[D]) pruned(sc *scratch[D], scan *growing[D], u int32, d uint64) bool {
	bp := &b.bp
	// Bit-parallel labels first (undirected builds only): distance
	// through BP root i and its neighbor set, adjusted by the set
	// intersections (§5.3). The per-vertex interleaved layout makes this
	// loop one contiguous scan.
	ou := int(u) * bp.numBP
	for i := 0; i < bp.numBP; i++ {
		dv := sc.bpDv[i]
		if dv == InfDist {
			continue
		}
		du := bp.bpDist[ou+i]
		if du == InfDist {
			continue
		}
		td := int(dv) + int(du)
		if td-2 <= int(d) {
			if sc.bpS1v[i]&bp.bpS1[ou+i] != 0 {
				td -= 2
			} else if sc.bpS1v[i]&bp.bpS0[ou+i] != 0 || sc.bpS0v[i]&bp.bpS1[ou+i] != 0 {
				td -= 1
			}
			if td <= int(d) {
				return true
			}
		}
	}
	return covers(sc.rootLab, scan, u, d)
}

// covers is the prune test's normal-label half: it scans only u's label
// in the sweep's scan family against a root-label array t, the search's
// T. Dijkstra searches call it directly (weighted builds have no
// bit-parallel labels), where it inlines into the settle loop.
// DynamicIndex.repair calls it with root and entry vertex swapped: the
// root's label against the entry vertex's, pinned as a t.
func covers[D dist](t []D, scan *growing[D], u int32, d uint64) bool {
	// Locals, and the distances resliced to the hubs' length, keep the
	// loop free of reloads and of a second bounds check.
	lv := scan.v[u]
	ld := scan.d[u][:len(lv)]
	for i, w := range lv {
		if tw := t[w]; tw != infOf[D]() && uint64(tw)+uint64(ld[i]) <= d {
			return true
		}
	}
	return false
}

// run performs the pruned searches of §4.2 from every vertex not
// consumed by the bit-parallel phase, in rank order: batch-parallel
// when workers > 1 (parallel.go), sequentially otherwise and whenever
// stats are collected.
func (b *builder[D]) run(workers int) error {
	b.sc = b.newScratch()
	if workers > 1 && b.stats == nil {
		return b.runBatches(workers)
	}
	for vk := int32(0); int(vk) < b.n; vk++ {
		if !b.used[vk] {
			if err := b.searchRoot(vk); err != nil {
				return err
			}
		}
	}
	return nil
}

// searchRoot runs root vk's sweeps sequentially.
func (b *builder[D]) searchRoot(vk int32) error {
	for i := range b.sweeps {
		sw := &b.sweeps[i]
		var added, visited int64
		var err error
		if b.weights != nil {
			added, visited, err = b.dijkstra(vk, sw)
		} else {
			added, visited, err = b.bfs(vk, vk, 0, sw)
		}
		if err != nil {
			return err
		}
		if b.stats != nil {
			b.stats.LabelsPerBFS = append(b.stats.LabelsPerBFS, added)
			b.stats.VisitedPerBFS = append(b.stats.VisitedPerBFS, visited)
			b.stats.RootRank = append(b.stats.RootRank, vk)
			b.stats.IsBitParallel = append(b.stats.IsBitParallel, false)
		}
	}
	return nil
}

// bfs is Algorithm 1 with the engineering of §4.5: a pruned BFS from vk
// along sw, with all scratch arrays reset by revisiting exactly the
// entries that were touched. Builds enter it at the root (start = vk,
// d0 = 0). DynamicIndex.InsertEdge resumes vk's search past a new edge
// (Akiba, Iwata & Yoshida, WWW 2014): it enters at the edge's far
// endpoint start, d0 hops from vk. added counts the label entries
// added or lowered.
func (b *builder[D]) bfs(vk, start int32, d0 uint8, sw *sweep[D]) (added, visited int64, err error) {
	sc := b.sc
	lv := sc.load(sw.root, vk)
	b.mirrorBP(sc, vk)
	que := append(sc.seen[:0], start)
	sc.hops[start] = d0
	sc.par[start] = -1
search:
	for qh := 0; qh < len(que); qh++ {
		u := que[qh]
		d := sc.hops[u]
		if b.pruned(sc, sw.scan, u, uint64(d)) {
			continue
		}
		// Label u with (vk, d) and expand.
		sw.scan.add(u, vk, D(d), sc.par)
		added++
		nd := int(d) + 1
		for _, w := range sw.next(u) {
			if sc.hops[w] == InfDist {
				if nd > MaxDist {
					err = ErrDiameterTooLarge
					break search
				}
				sc.hops[w] = uint8(nd)
				if b.paths {
					sc.par[w] = u
				}
				que = append(que, w)
			}
		}
	}
	sc.seen = que
	visited = int64(len(que))
	sc.reset(lv)
	return added, visited, err
}

// bpRoot is one selected bit-parallel root with its neighbor set.
type bpRoot struct {
	r  int32
	sr []int32
}

// selectBPRoots greedily picks up to t roots and neighbor sets (§5.4),
// marking them used. Selection is sequential and deterministic; the
// BFSs themselves are independent of one another.
func (b *builder[D]) selectBPRoots(h *graph.Graph, t int) []bpRoot {
	roots := make([]bpRoot, 0, t)
	r := int32(0)
	for i := 0; i < t; i++ {
		for int(r) < b.n && b.used[r] {
			r++
		}
		if int(r) >= b.n {
			break // fewer vertices than requested roots
		}
		b.used[r] = true
		var sr []int32
		for _, u := range h.Neighbors(r) {
			if len(sr) == bitParallelWidth {
				break
			}
			if !b.used[u] {
				b.used[u] = true
				sr = append(sr, u)
			}
		}
		roots = append(roots, bpRoot{r: r, sr: sr})
	}
	return roots
}

// runBitParallelPhase performs up to t bit-parallel BFSs (§5.4) over the
// rank-relabeled graph h. With workers > 1 the BFSs run concurrently —
// the paper's "thread-level parallelism" note (§4.5) applies cleanly
// here because bit-parallel searches never consult each other's labels.
func (b *builder[D]) runBitParallelPhase(h *graph.Graph, t, workers int) error {
	n := b.n
	bp := &b.bp
	roots := b.selectBPRoots(h, t)
	performed := len(roots)
	bp.bpDist = make([]uint8, performed*n)
	bp.bpS1 = make([]uint64, performed*n)
	bp.bpS0 = make([]uint64, performed*n)
	bp.numBP = performed

	// Each BFS runs over contiguous per-root scratch, then scatters into
	// the per-vertex-interleaved index arrays (layout v*numBP+i), which
	// keeps the later prune tests and queries on single cache lines.
	type bpScratch struct {
		dist []uint8
		s1   []uint64
		s0   []uint64
		que  []int32
	}
	runOne := func(i int, sc *bpScratch) error {
		var err error
		sc.que, err = bitParallelBFS(h, roots[i].r, roots[i].sr, sc.dist, sc.s1, sc.s0, sc.que)
		if err != nil {
			return err
		}
		for v := 0; v < n; v++ {
			o := v*performed + i
			bp.bpDist[o] = sc.dist[v]
			bp.bpS1[o] = sc.s1[v]
			bp.bpS0[o] = sc.s0[v]
		}
		return nil
	}
	newScratch := func() *bpScratch {
		return &bpScratch{
			dist: make([]uint8, n),
			s1:   make([]uint64, n),
			s0:   make([]uint64, n),
			que:  make([]int32, 0, 1024),
		}
	}
	if workers <= 1 || performed <= 1 {
		sc := newScratch()
		for i := range roots {
			if err := runOne(i, sc); err != nil {
				return err
			}
		}
	} else {
		if workers > performed {
			workers = performed
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		next := int32(-1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := newScratch()
				for {
					i := int(atomic.AddInt32(&next, 1))
					if i >= performed {
						return
					}
					if err := runOne(i, sc); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	if b.stats != nil {
		for i := range roots {
			reached := int64(0)
			for v := 0; v < n; v++ {
				if bp.bpDist[v*performed+i] != InfDist {
					reached++
				}
			}
			b.stats.LabelsPerBFS = append(b.stats.LabelsPerBFS, reached)
			b.stats.VisitedPerBFS = append(b.stats.VisitedPerBFS, reached)
			b.stats.RootRank = append(b.stats.RootRank, roots[i].r)
			b.stats.IsBitParallel = append(b.stats.IsBitParallel, true)
		}
	}
	return nil
}

// bitParallelBFS is Algorithm 3: a single BFS from r that simultaneously
// tracks, for every reached vertex v, the subsets of S_r lying on paths
// of length d(r,v)-1 (S^{-1}) and d(r,v) (S^{0}), using one bit per
// element of S_r. que is scratch; the (possibly regrown) buffer is
// returned for reuse.
func bitParallelBFS(h *graph.Graph, r int32, sr []int32, dist []uint8, s1, s0 []uint64, que []int32) ([]int32, error) {
	for i := range dist {
		dist[i] = InfDist
	}
	// The set arrays may be reused across roots; they accumulate via OR
	// and must start clean.
	for i := range s1 {
		s1[i] = 0
		s0[i] = 0
	}
	que = que[:0]
	que = append(que, r)
	dist[r] = 0
	for i, v := range sr {
		dist[v] = 1
		s1[v] = 1 << uint(i)
		que = append(que, v)
	}
	// Frontier [qt0, qt1) holds the vertices at the current distance d.
	// sr members are pre-enqueued at positions [1, 1+len(sr)) and belong
	// to level 1, which the child-edge rule below handles naturally.
	type edge struct{ v, u int32 }
	var sib, chd []edge
	qt0, qt1 := 0, 1
	d := uint8(0)
	for qt0 < len(que) {
		sib, chd = sib[:0], chd[:0]
		for qi := qt0; qi < qt1; qi++ {
			v := que[qi]
			for _, u := range h.Neighbors(v) {
				du := dist[u]
				switch {
				case du == InfDist:
					if int(d)+1 > MaxDist {
						return que, ErrDiameterTooLarge
					}
					dist[u] = d + 1
					que = append(que, u)
					chd = append(chd, edge{v, u})
				case du == d+1:
					chd = append(chd, edge{v, u})
				case du == d && v < u:
					sib = append(sib, edge{v, u})
				}
			}
		}
		for _, e := range sib {
			s0[e.v] |= s1[e.u]
			s0[e.u] |= s1[e.v]
		}
		for _, e := range chd {
			s1[e.u] |= s1[e.v]
			s0[e.u] |= s0[e.v]
		}
		qt0, qt1 = qt1, len(que)
		d++
	}
	// The recurrence can re-add an S^{-1} member to S^{0} through a
	// same-level neighbor; strip those so the sets match their §5.1
	// definitions exactly (the reference implementation does the same).
	for _, v := range que {
		s0[v] &^= s1[v]
	}
	return que[:0], nil
}
