package core

// Hub-search capability: every immutable index can invert its
// labels (internal/hubsearch) and answer neighborhood queries — k
// nearest vertices, all vertices within a radius, and nearest members
// of a registered subset — straight from the 2-hop cover, with no graph
// traversal. The inverted index is built lazily on first use (O(total
// label size) plus per-run sorting) and cached for the index lifetime;
// flat (version-2) containers can persist it so a memory-mapped index
// serves search queries with zero build cost (flat.go).
//
// DynamicIndex has no search capability: edge insertions mutate labels
// in place and would silently invalidate the inversion.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pll/internal/hubsearch"
	"pll/internal/trace"
)

// Neighbor is one search answer: a vertex (original ID) and its exact
// distance from the query source.
type Neighbor struct {
	Vertex   int32 `json:"vertex"`
	Distance int64 `json:"distance"`
}

// ErrForeignSet is returned when a VertexSet is used with an index
// other than the one it was registered on.
var ErrForeignSet = errors.New("core: vertex set was registered on a different index")

// VertexSet is a registered vertex subset with its own filtered
// inverted index, sized O(total label mass of the members): nearest-in
// queries merge only runs that can yield members, so they cost the same
// as a kNN over an index containing just the subset. Immutable and safe
// for concurrent use; valid only with the index that created it.
type VertexSet struct {
	owner any
	inv   *hubsearch.Inverted
	size  int
}

// Size returns the number of distinct vertices in the set.
func (vs *VertexSet) Size() int { return vs.size }

// searchState is the lazily built inverted index of one immutable
// index plus its pooled query scratch.
type searchState struct {
	once sync.Once
	inv  *hubsearch.Inverted // may be pre-populated by the flat loader
	pool sync.Pool           // recycles *hubsearch.Scratch
}

// ensure builds the inverted index exactly once, unless the flat
// loader already attached a persisted one.
func (st *searchState) ensure(build func() *hubsearch.Inverted) *hubsearch.Inverted {
	st.once.Do(func() {
		if st.inv == nil {
			st.inv = build()
		}
	})
	return st.inv
}

func (st *searchState) getScratch(n int) *hubsearch.Scratch {
	sc, _ := st.pool.Get().(*hubsearch.Scratch)
	if sc == nil || !sc.Fits(n) {
		sc = hubsearch.NewScratch(n)
	}
	return sc
}

// finishNeighbors maps rank-space results to vertex IDs, orders them by
// (distance, vertex) and, when limit > 0, trims to the limit — the
// deterministic tie-break rule shared by every variant: ties at the
// k-th distance resolve to the smallest vertex IDs.
func finishNeighbors(perm []int32, res []hubsearch.Result, limit int) []Neighbor {
	out := make([]Neighbor, len(res))
	for i, r := range res {
		out[i] = Neighbor{Vertex: perm[r.Rank], Distance: r.Dist}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Vertex < out[j].Vertex
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// rankMembers validates and deduplicates a member list, returning the
// members as ranks. Costs O(len(members)), not O(n) — set
// registration must stay cheap on huge indexes.
func rankMembers(n int, rank []int32, members []int32) ([]int32, error) {
	seen := make(map[int32]struct{}, len(members))
	out := make([]int32, 0, len(members))
	for _, v := range members {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: set member %d out of range [0,%d)", v, n)
		}
		r := rank[v]
		if _, dup := seen[r]; !dup {
			seen[r] = struct{}{}
			out = append(out, r)
		}
	}
	return out, nil
}

// emit replays the target-side label entries (and bit-parallel rows)
// of the given ranks — or of every vertex when ranks is nil — into add:
// the input hubsearch inverts. Directed indexes invert L_IN, so search
// ranks candidates by the forward distance d(s, v).
func (st *store[D]) emit(ranks []int32) func(add func(run, vertex int32, dist uint32)) {
	return func(add func(run, vertex int32, dist uint32)) {
		one := func(r int32) {
			hubs, dists := st.in.span(r)
			for i, h := range hubs {
				add(h, r, uint32(dists[i]))
			}
			o := int(r) * st.numBP
			for i := 0; i < st.numBP; i++ {
				if d := st.bpDist[o+i]; d != InfDist {
					add(int32(st.n+i), r, uint32(d))
				}
			}
		}
		if ranks == nil {
			for r := int32(0); int(r) < st.n; r++ {
				one(r)
			}
			return
		}
		for _, r := range ranks {
			one(r)
		}
	}
}

// Inverted returns the index's inverted label index, building and
// caching it on first call. Safe for concurrent use.
func (st *store[D]) Inverted() *hubsearch.Inverted {
	return st.search.ensure(func() *hubsearch.Inverted {
		return hubsearch.Build(st.n, st.numBP, st.bpS1, st.bpS0, st.emit(nil))
	})
}

// SourceRuns expands source rank rs's label (L_OUT on directed
// indexes) and bit-parallel rows into merge runs, plus the source-side
// masks for §5.3 corrections (nil without bit-parallel labels).
func (st *store[D]) SourceRuns(rs int32) (runs []hubsearch.Run, s1, s0 []uint64) {
	hubs, dists := st.out.span(rs)
	runs = make([]hubsearch.Run, 0, len(hubs)+st.numBP)
	for i, h := range hubs {
		runs = append(runs, hubsearch.Run{ID: h, Base: int64(dists[i])})
	}
	if st.numBP > 0 {
		o := int(rs) * st.numBP
		s1 = st.bpS1[o : o+st.numBP]
		s0 = st.bpS0[o : o+st.numBP]
		for i := 0; i < st.numBP; i++ {
			if d := st.bpDist[o+i]; d != InfDist {
				runs = append(runs, hubsearch.Run{ID: int32(st.n + i), Base: int64(d)})
			}
		}
	}
	return runs, s1, s0
}

// GetScratch takes a merge workspace from the index's pool.
func (st *store[D]) GetScratch() *hubsearch.Scratch { return st.search.getScratch(st.n) }

// PutScratch returns a merge workspace to the index's pool.
func (st *store[D]) PutScratch(sc *hubsearch.Scratch) { st.search.pool.Put(sc) }

// KNN returns the k nearest vertices to s (s itself excluded), sorted
// by (distance, vertex ID); ties at the cutoff resolve to the smallest
// IDs. Fewer than k results mean fewer than k vertices are reachable.
// A non-nil profile records the hub scan: its duration, the runs it
// seeded and the entries it advanced. Out-of-range vertices panic,
// mirroring Query. Safe for concurrent use.
func (st *store[D]) KNN(s int32, k int, p *trace.QueryProfile) []Neighbor {
	var start time.Time
	if p != nil {
		start = time.Now()
	}
	inv := st.Inverted()
	rs := st.rank[s]
	runs, s1, s0 := st.SourceRuns(rs)
	sc := st.GetScratch()
	res := inv.KNN(runs, rs, s1, s0, k, sc)
	// Read the counters before the scratch returns to the pool: another
	// goroutine may start a query on it immediately.
	if p != nil {
		p.AddScan(int64(sc.Runs), sc.Scanned, time.Since(start))
	}
	st.PutScratch(sc)
	return finishNeighbors(st.perm, res, k)
}

// SearchRange returns every vertex within distance radius of s (s
// itself excluded), sorted by (distance, vertex ID). Safe for
// concurrent use.
func (st *store[D]) SearchRange(s int32, radius int64) []Neighbor {
	inv := st.Inverted()
	rs := st.rank[s]
	runs, s1, s0 := st.SourceRuns(rs)
	sc := st.GetScratch()
	res := inv.Range(runs, rs, s1, s0, radius, sc)
	st.PutScratch(sc)
	return finishNeighbors(st.perm, res, 0)
}

// NewVertexSet registers a subset of vertices (by ID) for KNNIn
// queries, building its filtered inverted index.
func (st *store[D]) NewVertexSet(members []int32) (*VertexSet, error) {
	ranks, err := rankMembers(st.n, st.rank, members)
	if err != nil {
		return nil, err
	}
	inv := hubsearch.BuildSubset(st.n, st.numBP, st.bpS1, st.bpS0, st.emit(ranks))
	return &VertexSet{owner: st, inv: inv, size: len(ranks)}, nil
}

// KNNIn returns the k members of set nearest to s (s itself excluded
// if a member), with the KNN ordering contract. The set must have been
// registered on this index.
func (st *store[D]) KNNIn(s int32, set *VertexSet, k int) ([]Neighbor, error) {
	if set == nil || set.owner != any(st) {
		return nil, ErrForeignSet
	}
	rs := st.rank[s]
	runs, s1, s0 := st.SourceRuns(rs)
	sc := st.GetScratch()
	res := set.inv.KNN(runs, rs, s1, s0, k, sc)
	st.PutScratch(sc)
	return finishNeighbors(st.perm, res, k), nil
}
