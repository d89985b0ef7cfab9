package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pll/internal/graph"
	"pll/internal/order"
)

// Options configures Build.
type Options struct {
	// Ordering selects the vertex-ordering strategy (§4.4). Default:
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
	// CollectStats, if non-nil, receives per-BFS construction counters
	// (the instrumentation behind Figures 3 and 4).
	CollectStats *BuildStats
	// Workers parallelizes construction across goroutines: the
	// bit-parallel prelude (the §4.5 thread-level-parallelism note; the
	// BFSs are mutually independent) and the pruned labeling phase
	// itself, which runs rank-ordered batches of pruned searches against
	// the frozen labels of all earlier ranks and merges them
	// deterministically (see parallel.go). The resulting index is
	// byte-identical to a sequential build for every option combination.
	// 0 selects GOMAXPROCS; 1 (or negative) forces the sequential code
	// path. Builds that collect per-BFS statistics (CollectStats) always
	// run the pruned phase sequentially, since the relaxed batch
	// searches would skew the visited counters.
	Workers int
}

// BuildStats records what each pruned BFS did during construction.
type BuildStats struct {
	// LabelsPerBFS[k] is the number of label entries added by the k-th
	// root overall (bit-parallel roots count the vertices they reached).
	LabelsPerBFS []int64
	// VisitedPerBFS[k] is the number of vertices each root's search
	// visited (labeled or pruned); bit-parallel roots count reached
	// vertices.
	VisitedPerBFS []int64
	// RootRank[k] is the rank of the k-th root.
	RootRank []int32
	// IsBitParallel[k] marks roots processed by bit-parallel BFS.
	IsBitParallel []bool
}

// bitParallelWidth is b, the number of neighbor roots packed into one
// machine word (§5: 32 or 64; we always use 64-bit words).
const bitParallelWidth = 64

// Build constructs a pruned-landmark-labeling index for g.
func Build(g *graph.Graph, opt Options) (*Index, error) {
	n := g.NumVertices()
	if opt.NumBitParallel < 0 {
		return nil, fmt.Errorf("core: negative NumBitParallel %d", opt.NumBitParallel)
	}
	numBP := opt.NumBitParallel
	if opt.StorePaths {
		numBP = 0
	}
	if numBP > n {
		numBP = n
	}

	// Rank vertices and relabel the graph so that vertex IDs *are* ranks:
	// labels then store ranks and come out sorted for free (§4.5).
	perm := opt.CustomOrder
	if perm == nil {
		perm = order.Compute(g, opt.Ordering, opt.Seed)
	} else if len(perm) != n {
		return nil, fmt.Errorf("core: CustomOrder length %d != n %d", len(perm), n)
	}
	h, err := g.Relabel(perm)
	if err != nil {
		return nil, fmt.Errorf("core: invalid CustomOrder: %w", err)
	}

	ix := &Index{}
	ix.setOrder(VariantUndirected, perm)

	b := newBuilder(h, ix, opt.StorePaths, opt.CollectStats)
	workers := EffectiveWorkers(opt.Workers)
	if err := b.runBitParallelPhase(numBP, workers); err != nil {
		return nil, err
	}
	if workers > 1 && opt.CollectStats == nil {
		if err := b.runPrunedPhaseParallel(workers); err != nil {
			return nil, err
		}
	} else if err := b.runPrunedPhase(); err != nil {
		return nil, err
	}
	ix.out = flatten(b.labV, b.labD, b.labP)
	ix.in = ix.out
	return ix, nil
}

// builder holds the scratch state of one construction run.
type builder struct {
	h  *graph.Graph // rank-relabeled graph
	ix *Index
	n  int

	// Per-vertex growing labels, indexed by rank.
	labV       [][]int32
	labD       [][]uint8
	labP       [][]int32 // parents; nil unless storing paths
	storePaths bool

	used []bool // vertex consumed as a bit-parallel root or neighbor

	// sc is the scratch of the sequential pruned searches and of the
	// batch-merge replays; concurrent batch searches use their own
	// prunedScratch each (parallel.go).
	sc prunedScratch

	// Per-vertex marks scattered from a batch search's candidate list
	// during a path-storing replay (parallel.go); nil otherwise.
	candD      []uint8
	candPruned []bool

	stats *BuildStats
}

// prunedScratch is the per-search scratch of one pruned BFS,
// re-initialized incrementally (§4.5 "Initialization"): dist is the BFS
// distance array P, rootLab is the array T of distances from the current
// root's label, and the bp* arrays mirror the root's bit-parallel label
// entries for the prune test.
type prunedScratch struct {
	dist    []uint8
	par     []int32 // nil unless storing paths
	rootLab []uint8
	queue   []int32
	bpDv    []uint8
	bpS1v   []uint64
	bpS0v   []uint64
}

// newPrunedScratch allocates an all-InfDist scratch for a graph of n
// vertices and numBP bit-parallel roots.
func newPrunedScratch(n, numBP int, storePaths bool) *prunedScratch {
	sc := &prunedScratch{
		dist:    make([]uint8, n),
		rootLab: make([]uint8, n+1), // +1: sentinel rank may be probed
		queue:   make([]int32, 0, 1024),
		bpDv:    make([]uint8, numBP),
		bpS1v:   make([]uint64, numBP),
		bpS0v:   make([]uint64, numBP),
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

func newBuilder(h *graph.Graph, ix *Index, storePaths bool, stats *BuildStats) *builder {
	n := h.NumVertices()
	b := &builder{
		h: h, ix: ix, n: n,
		labV:       make([][]int32, n),
		labD:       make([][]uint8, n),
		storePaths: storePaths,
		used:       make([]bool, n),
		sc:         *newPrunedScratch(n, 0, storePaths),
		stats:      stats,
	}
	if storePaths {
		b.labP = make([][]int32, n)
	}
	return b
}

// bpRoot is one selected bit-parallel root with its neighbor set.
type bpRoot struct {
	r  int32
	sr []int32
}

// selectBPRoots greedily picks up to t roots and neighbor sets (§5.4),
// marking them used. Selection is sequential and deterministic; the
// BFSs themselves are independent of one another.
func (b *builder) selectBPRoots(t int) []bpRoot {
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
		for _, u := range b.h.Neighbors(r) {
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

// runBitParallelPhase performs up to t bit-parallel BFSs (§5.4). With
// workers > 1 the BFSs run concurrently — the paper's "thread-level
// parallelism" note (§4.5) applies cleanly here because bit-parallel
// searches never consult each other's labels.
func (b *builder) runBitParallelPhase(t, workers int) error {
	n := b.n
	ix := b.ix
	roots := b.selectBPRoots(t)
	performed := len(roots)
	ix.bpDist = make([]uint8, performed*n)
	ix.bpS1 = make([]uint64, performed*n)
	ix.bpS0 = make([]uint64, performed*n)
	ix.numBP = performed
	b.sc.bpDv = make([]uint8, performed)
	b.sc.bpS1v = make([]uint64, performed)
	b.sc.bpS0v = make([]uint64, performed)

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
		sc.que, err = bitParallelBFS(b.h, roots[i].r, roots[i].sr, sc.dist, sc.s1, sc.s0, sc.que)
		if err != nil {
			return err
		}
		for v := 0; v < n; v++ {
			o := v*performed + i
			ix.bpDist[o] = sc.dist[v]
			ix.bpS1[o] = sc.s1[v]
			ix.bpS0[o] = sc.s0[v]
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
				if ix.bpDist[v*performed+i] != InfDist {
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

// runPrunedPhase performs the pruned BFSs of §4.2 from every vertex not
// consumed by the bit-parallel phase, in rank order.
func (b *builder) runPrunedPhase() error {
	for vk := int32(0); int(vk) < b.n; vk++ {
		if b.used[vk] {
			continue
		}
		added, visited, err := b.prunedBFS(vk)
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

// prunedBFS is Algorithm 1 with the engineering of §4.5: the prune test
// scans only L(u) against the root-label array T (rootLab), consults
// bit-parallel labels first, and all scratch arrays are reset by
// revisiting exactly the entries that were touched.
func (b *builder) prunedBFS(vk int32) (added, visited int64, err error) {
	sc := &b.sc
	// Load T with the root's current label (§4.5 "Querying").
	lv, ld := b.labV[vk], b.labD[vk]
	for i, w := range lv {
		sc.rootLab[w] = ld[i]
	}
	b.mirrorBP(sc, vk)

	que := sc.queue[:0]
	que = append(que, vk)
	sc.dist[vk] = 0
	if b.storePaths {
		sc.par[vk] = -1
	}
	for qh := 0; qh < len(que); qh++ {
		u := que[qh]
		d := sc.dist[u]
		if !b.pruned(sc, u, d) {
			// Label u with (vk, d) and expand.
			b.labV[u] = append(b.labV[u], vk)
			b.labD[u] = append(b.labD[u], d)
			if b.storePaths {
				b.labP[u] = append(b.labP[u], sc.par[u])
			}
			added++
			nd := int(d) + 1
			for _, w := range b.h.Neighbors(u) {
				if sc.dist[w] == InfDist {
					if nd > MaxDist {
						sc.reset(que, lv)
						return 0, 0, ErrDiameterTooLarge
					}
					sc.dist[w] = uint8(nd)
					if b.storePaths {
						sc.par[w] = u
					}
					que = append(que, w)
				}
			}
		}
	}
	visited = int64(len(que))
	sc.reset(que, lv)
	sc.queue = que[:0]
	return added, visited, nil
}

// mirrorBP loads the root's bit-parallel label entries into the scratch.
func (b *builder) mirrorBP(sc *prunedScratch, vk int32) {
	ix := b.ix
	ov := int(vk) * ix.numBP
	for i := 0; i < ix.numBP; i++ {
		sc.bpDv[i] = ix.bpDist[ov+i]
		sc.bpS1v[i] = ix.bpS1[ov+i]
		sc.bpS0v[i] = ix.bpS0[ov+i]
	}
}

// pruned reports whether the vertex u at BFS distance d from the current
// root is already covered by existing labels (line 7 of Algorithm 1).
// The root's side of the test lives in sc (T array and BP mirrors), so
// concurrent batch searches can each bring their own.
func (b *builder) pruned(sc *prunedScratch, u int32, d uint8) bool {
	ix := b.ix
	// Bit-parallel labels first: distance through BP root i and its
	// neighbor set, adjusted by the set intersections (§5.3). The
	// per-vertex interleaved layout makes this loop one contiguous scan.
	ou := int(u) * ix.numBP
	for i := 0; i < ix.numBP; i++ {
		dv := sc.bpDv[i]
		if dv == InfDist {
			continue
		}
		du := ix.bpDist[ou+i]
		if du == InfDist {
			continue
		}
		td := int(dv) + int(du)
		if td-2 <= int(d) {
			if sc.bpS1v[i]&ix.bpS1[ou+i] != 0 {
				td -= 2
			} else if sc.bpS1v[i]&ix.bpS0[ou+i] != 0 || sc.bpS0v[i]&ix.bpS1[ou+i] != 0 {
				td -= 1
			}
			if td <= int(d) {
				return true
			}
		}
	}
	// Normal labels: scan L(u) against the root-label array T.
	lv, ld := b.labV[u], b.labD[u]
	for i, w := range lv {
		tw := sc.rootLab[w]
		if tw != InfDist && int(tw)+int(ld[i]) <= int(d) {
			return true
		}
	}
	return false
}

// reset restores dist and rootLab to all-InfDist by touching only the
// entries the search wrote (§4.5 "Initialization").
func (sc *prunedScratch) reset(visited []int32, rootLabelVertices []int32) {
	for _, v := range visited {
		sc.dist[v] = InfDist
	}
	for _, w := range rootLabelVertices {
		sc.rootLab[w] = InfDist
	}
}
