package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel pruned labeling.
//
// The pruned phase looks inherently sequential: the search from the
// k-th root prunes against the labels added by roots 1..k-1. This file
// runs it in rank-ordered batches instead. All searches of a batch run
// concurrently against the *frozen* label set of every earlier batch
// (reads only — nobody writes labels while a batch is in flight), each
// producing a candidate list per sweep; then a sequential merge walks
// the batch in rank order, sweep by sweep, and replays exactly the
// pruning decisions the sequential algorithm would have made, so the
// final labels are byte-identical to a sequential build.
//
// Why the merge can be exact and still cheap:
//
//  1. A pruned search that prunes against *fewer* labels visits (BFS)
//     or settles (Dijkstra) a superset of vertices, and every vertex it
//     labels is at its exact distance from the root (the standard PLL
//     invariant: a vertex reachable only through pruned predecessors is
//     already covered, so over-estimated visits always fail the prune
//     test and are never labeled). Hence each batch search's candidate
//     list is a superset of the sequential label set, with identical
//     distances.
//  2. The only labels a batch search could not see are those added by
//     earlier roots (or earlier sweeps of the same root) of the *same*
//     batch — and those hubs all have rank >= the batch's first rank.
//     Labels are stored sorted by hub rank and appended in rank order,
//     so the invisible entries are exactly the tails of L(u) and of the
//     root's own label T with hub >= batchStart. The merge therefore
//     re-tests each candidate (u, d) against just those tails: a hub
//     pair can newly cover (root, u) only if the hub itself belongs to
//     this batch. The bit-parallel labels are complete before the
//     pruned phase starts, so they never need a re-test.
//
// Together: sequential label set = candidates that survive the tail
// test, in the same order, with the same distances. For path-storing
// builds the search-tree parents must also match the sequential visit
// order, so the merge instead replays the full BFS queue (or Dijkstra
// heap) discipline but with O(tail) prune tests (see replayBFS).
//
// Batches are sized by a ramp (see prunedBatchSize): the first,
// highest-ranked roots label huge swaths of the graph, so batching them
// against a near-empty frozen set would make every same-batch search
// re-traverse the whole graph; once a few dozen roots are in, the
// frozen set prunes almost as hard as the live one and batches grow.
// Batch size affects only performance, never the output.

// EffectiveWorkers resolves an Options.Workers value: 0 selects
// GOMAXPROCS, negative values clamp to 1 (sequential), anything else is
// returned unchanged.
func EffectiveWorkers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// Batch-ramp knobs. Variables rather than constants so the equivalence
// tests can force extreme schedules (batch everything / batch nothing)
// and assert the output never changes.
var (
	// parallelSeqPrefix is how many pruned roots run strictly
	// sequentially before batching starts.
	parallelSeqPrefix = 32
	// parallelBatchDiv ramps the batch size as done/parallelBatchDiv.
	parallelBatchDiv = 8
	// maxPrunedBatch caps the batch size, bounding candidate memory and
	// keeping the sequential merge close behind the searches.
	maxPrunedBatch = 512
)

// prunedBatchSize picks the next batch size after done pruned roots.
// The ramp deliberately has no worker floor: early high-rank roots run
// in small batches even if that leaves workers idle, because batching
// them against a barely-populated frozen label set wastes far more work
// (every batch member re-traverses what its predecessors would have
// pruned) than the lost concurrency costs.
func prunedBatchSize(done, workers int) int {
	if done < parallelSeqPrefix {
		return 1
	}
	b := done / parallelBatchDiv
	if b > maxPrunedBatch {
		b = maxPrunedBatch
	}
	if b < 1 {
		b = 1
	}
	return b
}

// cand is one vertex a relaxed batch search visited: a proposed label
// entry (v, d), or — kept only for path replays, which recompute the
// parents themselves — a vertex the search pruned against the frozen
// labels.
type cand[D dist] struct {
	v      int32
	d      D
	pruned bool
}

// runBatches is run with the batch-parallel scheme above. It requires
// workers > 1 and no stats collection.
func (b *builder[D]) runBatches(workers int) error {
	roots := make([]int32, 0, b.n)
	for v := int32(0); int(v) < b.n; v++ {
		if !b.used[v] {
			roots = append(roots, v)
		}
	}
	if b.paths {
		b.candD = filled(make([]D, b.n), infOf[D]())
		b.candPruned = make([]bool, b.n)
	}

	// One candidate list per (root, sweep) of a batch.
	ns := len(b.sweeps)
	scratches := make([]*scratch[D], workers)
	cands := make([][]cand[D], maxPrunedBatch*ns)
	needSeq := make([]bool, maxPrunedBatch*ns)

	done := 0
	for done < len(roots) {
		size := min(prunedBatchSize(done, workers), len(roots)-done)
		batch := roots[done : done+size]
		done += size
		if size == 1 {
			if err := b.searchRoot(batch[0]); err != nil {
				return err
			}
			continue
		}

		// Concurrent relaxed searches over the frozen labels.
		var wg sync.WaitGroup
		next := int32(-1)
		for w := 0; w < min(workers, size); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if scratches[w] == nil {
					scratches[w] = b.newScratch()
				}
				sc := scratches[w]
				for {
					i := int(atomic.AddInt32(&next, 1))
					if i >= size {
						return
					}
					for s := range b.sweeps {
						j := i*ns + s
						if b.weights != nil {
							cands[j], needSeq[j] = b.relaxedDijkstra(batch[i], &b.sweeps[s], sc, cands[j][:0])
						} else {
							cands[j], needSeq[j] = b.relaxedBFS(batch[i], &b.sweeps[s], sc, cands[j][:0])
						}
					}
				}
			}(w)
		}
		wg.Wait()

		// Deterministic merge in rank order, each root's sweeps in turn.
		batchStart := batch[0]
		for i, vk := range batch {
			for s := range b.sweeps {
				if err := b.merge(vk, batchStart, &b.sweeps[s], cands[i*ns+s], needSeq[i*ns+s]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// merge finalizes one sweep of batch root vk. needSeq means the relaxed
// search overran — or, for BFS, brushed against — the distance budget
// (see relaxedBFS): the sweep re-runs with the real sequential search,
// which fails exactly where a sequential build would, and otherwise (it
// prunes harder) produces the right labels. Path-storing builds replay
// the search; distance-only builds filter the candidates.
func (b *builder[D]) merge(vk, batchStart int32, sw *sweep[D], cands []cand[D], needSeq bool) error {
	var err error
	switch {
	case needSeq && b.weights != nil:
		_, _, err = b.dijkstra(vk, sw)
	case needSeq:
		_, _, err = b.bfs(vk, vk, 0, sw)
	case b.paths:
		b.mark(cands, true)
		if b.weights != nil {
			err = b.replayDijkstra(vk, batchStart, sw)
		} else {
			err = b.replayBFS(vk, batchStart, sw)
		}
		b.mark(cands, false)
	default:
		b.filter(vk, batchStart, sw, cands)
	}
	return err
}

// tailCovers reports whether an entry of u's scan-side label with hub >=
// batchStart — one the relaxed search could not see — covers distance d
// together with T.
func (sc *scratch[D]) tailCovers(scan *growing[D], u, batchStart int32, d uint64) bool {
	inf := infOf[D]()
	uv, ud := scan.v[u], scan.d[u]
	for i := len(uv) - 1; i >= 0 && uv[i] >= batchStart; i-- {
		if tw := sc.rootLab[uv[i]]; tw != inf && uint64(tw)+uint64(ud[i]) <= d {
			return true
		}
	}
	return false
}

// filter finalizes a distance-only sweep of batch root vk: each
// candidate (u, d) is re-tested against the label tails with hub >=
// batchStart and survivors are appended, reproducing the sequential
// pruning decisions exactly.
func (b *builder[D]) filter(vk, batchStart int32, sw *sweep[D], cands []cand[D]) {
	// T is the root's label as of now, i.e. including entries added by
	// earlier roots of this batch — exactly what the sequential search
	// from vk would have loaded.
	lv := b.sc.load(sw.root, vk)
	for _, c := range cands {
		if !b.sc.tailCovers(sw.scan, c.v, batchStart, uint64(c.d)) {
			sw.scan.add(c.v, vk, c.d, nil) // distance-only: no parents
		}
	}
	b.sc.reset(lv)
}

// mark scatters (on) or clears (off) a batch search's candidates over
// the per-vertex replay marks.
func (b *builder[D]) mark(cands []cand[D], on bool) {
	for _, c := range cands {
		switch {
		case c.pruned:
			b.candPruned[c.v] = on
		case on:
			b.candD[c.v] = c.d
		default:
			b.candD[c.v] = infOf[D]()
		}
	}
}

// replayPruned is a replay's reconstruction of the sequential prune
// decision for u reached at distance d: pruned if the batch search
// pruned u against the frozen labels, or first reached it later than
// the batch search did (which per the invariant means the pair is
// already covered); otherwise u is a candidate at its exact distance,
// pruned iff a same-batch label tail covers it.
func (b *builder[D]) replayPruned(sw *sweep[D], u, batchStart int32, d uint64) bool {
	c := b.candD[u]
	if b.candPruned[u] || c == infOf[D]() || uint64(c) != d {
		return true
	}
	return b.sc.tailCovers(sw.scan, u, batchStart, d)
}

// relaxedBFS runs root vk's pruned BFS along sw against the frozen
// label set, appending every labeled vertex (and, when storing paths,
// every pruned visit) to cands. It only reads shared builder state —
// labels, bit-parallel arrays, the graph — and writes nothing but sc
// and cands. needSeq asks the caller to discard the candidates and fall
// back to a sequential search for this sweep. It is set when the search
// exceeded MaxDist — and, for distance-only builds, when any candidate
// sits exactly at MaxDist: the sequential search's overflow check fires
// when an *expanded* vertex at MaxDist meets a then-unvisited neighbor,
// which depends on sequential visit state the candidate filter does not
// replay. Expanded vertices carry exact distances, so every vertex that
// could trigger a sequential overflow is a candidate at MaxDist here —
// the flag conservatively covers all such roots, keeping even the
// failure behavior identical to a sequential build. (Path-storing
// builds replay the full queue discipline and need no such guard.)
func (b *builder[D]) relaxedBFS(vk int32, sw *sweep[D], sc *scratch[D], cands []cand[D]) (_ []cand[D], needSeq bool) {
	lv := sc.load(sw.root, vk)
	b.mirrorBP(sc, vk)
	que := append(sc.seen[:0], vk)
	sc.hops[vk] = 0
	sc.par[vk] = -1
search:
	for qh := 0; qh < len(que); qh++ {
		u := que[qh]
		d := sc.hops[u]
		if b.pruned(sc, sw.scan, u, uint64(d)) {
			if b.paths {
				cands = append(cands, cand[D]{v: u, pruned: true})
			}
			continue
		}
		cands = append(cands, cand[D]{v: u, d: D(d)})
		if !b.paths && int(d) == MaxDist {
			needSeq = true
			break
		}
		nd := int(d) + 1
		for _, w := range sw.next(u) {
			if sc.hops[w] == InfDist {
				if nd > MaxDist {
					needSeq = true
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
	sc.reset(lv)
	return cands, needSeq
}

// replayBFS is the path-storing merge: parent pointers must match the
// sequential BFS tree exactly, and the tree depends on the queue order,
// so the merge re-runs the full BFS queue discipline. The prune tests
// stay cheap: the batch search already decided every vertex against the
// frozen labels, so the replay only needs the candidate marks plus a
// label-tail scan (replayPruned).
func (b *builder[D]) replayBFS(vk, batchStart int32, sw *sweep[D]) error {
	sc := b.sc
	lv := sc.load(sw.root, vk)
	que := append(sc.seen[:0], vk)
	sc.hops[vk] = 0
	sc.par[vk] = -1
	var err error
replay:
	for qh := 0; qh < len(que); qh++ {
		u := que[qh]
		d := sc.hops[u]
		if b.replayPruned(sw, u, batchStart, uint64(d)) {
			continue
		}
		sw.scan.add(u, vk, D(d), sc.par)
		nd := int(d) + 1
		for _, w := range sw.next(u) {
			if sc.hops[w] == InfDist {
				if nd > MaxDist {
					// The replay reproduces the sequential execution
					// exactly, so this error fires precisely where a
					// sequential build would fail. (It is reachable even
					// when the relaxed search succeeded: the relaxed
					// search may have reached w earlier along a route
					// the sequential order prunes.)
					err = ErrDiameterTooLarge
					break replay
				}
				sc.hops[w] = uint8(nd)
				sc.par[w] = u
				que = append(que, w)
			}
		}
	}
	sc.seen = que
	sc.reset(lv)
	return err
}
