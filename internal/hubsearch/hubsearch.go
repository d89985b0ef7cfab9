// Package hubsearch turns a finished 2-hop label set into a search
// structure. The pruned-landmark labels of the paper answer
// point-to-point queries by merge-joining two label arrays; inverting
// the same labels — hub -> the dist-sorted list of vertices that carry
// the hub — yields an index over *neighborhoods*: the k nearest
// vertices to s, every vertex within distance r of s, and the nearest
// members of a registered subset all fall out of a heap merge over the
// inverted lists of s's own hubs, with no graph traversal at all.
//
// The package is deliberately self-contained: it operates on plain
// arrays in rank space (the caller's construction order), knows nothing
// about graphs or containers, and is driven by internal/core, which
// owns the label arrays, persists inverted sections in flat containers,
// and maps ranks back to vertex IDs.
//
// Correctness rests on the 2-hop cover property: for every reachable
// pair (s,v) some shortest-path hub lies in both labels, so the merge
// over {(h, d(s,h)+d(h,v)) : h in L(s), v in inv(h)} attains the exact
// distance for every reachable v. Bit-parallel roots (§5.4 of the
// paper) take part as additional runs. Their §5.3 mask corrections
// lower a raw key by one or two; the engines keep every merge key a
// lower bound on what its cursor yields by keying a root's run one
// under the raw sum and reading the exact −2 candidates from S^{-1}
// postings derived from the masks (postings.go), so the merge finalizes
// with no slack (see query.go).
package hubsearch

import (
	"fmt"
	"sort"
	"sync"
)

// Inverted is the hub-inverted form of one label family in CSR layout:
// run h (a hub rank) owns Vertex[Off[h]:Off[h+1]] and the parallel
// Dist array, sorted by (dist, vertex) ascending. Runs N..N+NumBP-1
// are the bit-parallel roots in selection order.
//
// An Inverted is immutable after Build (or after being decoded from a
// flat container) and safe for concurrent queries.
//
// pllvet:sharedro — the arrays may alias read-only mapped flat-container
// sections; only the builders below (marked ignore) fill them, before
// publication.
type Inverted struct {
	N     int // vertices (and normal-hub runs)
	NumBP int // bit-parallel runs appended after the N hub runs

	Off    []int64  // len N+NumBP+1, offsets into Vertex/Dist
	Vertex []int32  // vertex ranks, grouped by run
	Dist   []uint32 // distances parallel to Vertex, ascending per run

	// BPS1 and BPS0 are the S^{-1} and S^{0} root-neighbor masks of
	// every vertex (stride NumBP, layout v*NumBP+i), aliased from the
	// owning index so the query engines can apply the §5.3 distance
	// corrections. nil when NumBP is 0.
	BPS1 []uint64
	BPS0 []uint64

	// RunIndex, when non-nil, marks a compact (subset) inversion: Off
	// holds len(RunIndex) runs and RunIndex maps a global run ID (hub
	// rank, or N+i for bit-parallel root i) to its slot; absent IDs
	// have empty runs. Full inversions leave it nil and index Off by
	// run ID directly — the layout persisted in flat containers.
	RunIndex map[int32]int32

	// post holds the S^{-1} postings of the bit-parallel runs, derived
	// under postOnce by the first query that seeds one (postings.go).
	postOnce sync.Once
	post     *postings
}

// NumRuns returns the number of runs: normal hubs plus bit-parallel
// roots for a full inversion, occupied runs only for a compact one.
func (inv *Inverted) NumRuns() int {
	if inv.RunIndex != nil {
		return len(inv.RunIndex)
	}
	return inv.N + inv.NumBP
}

// Entries returns the total number of inverted entries.
func (inv *Inverted) Entries() int64 { return int64(len(inv.Vertex)) }

// span returns the entry range [lo, hi) of run id, which must be a hub
// rank or N+i for a bit-parallel root i. On a compact inversion, runs
// absent from RunIndex are empty.
func (inv *Inverted) span(id int32) (lo, hi int64) {
	slot := id
	if inv.RunIndex != nil {
		var ok bool
		if slot, ok = inv.RunIndex[id]; !ok {
			return 0, 0
		}
	}
	return inv.Off[slot], inv.Off[slot+1]
}

// Build constructs the inverted index for one label family. emit must
// call add once per label entry (run = hub rank for normal entries,
// N+i for bit-parallel root i; vertex = the rank carrying the entry;
// dist = the label distance); it is invoked twice — a counting pass and
// a fill pass — and must produce the same entries both times. The
// result is deterministic regardless of emission order: entries are
// grouped by run and each run is sorted by (dist, vertex), a total
// order because a vertex appears at most once per run.
//
//pllvet:ignore mmapwrite builder fills freshly allocated arrays before the Inverted is published
func Build(n, numBP int, bps1, bps0 []uint64, emit func(add func(run, vertex int32, dist uint32))) *Inverted {
	runs := n + numBP
	off := make([]int64, runs+1)
	emit(func(run, vertex int32, dist uint32) { off[run+1]++ })
	for i := 0; i < runs; i++ {
		off[i+1] += off[i]
	}
	total := off[runs]
	inv := &Inverted{
		N:      n,
		NumBP:  numBP,
		Off:    off,
		Vertex: make([]int32, total),
		Dist:   make([]uint32, total),
		BPS1:   bps1,
		BPS0:   bps0,
	}
	next := append([]int64(nil), off...)
	emit(func(run, vertex int32, dist uint32) {
		p := next[run]
		inv.Vertex[p] = vertex
		inv.Dist[p] = dist
		next[run] = p + 1
	})
	for i := 0; i < runs; i++ {
		if off[i+1]-off[i] > 1 {
			sort.Sort(runSorter{inv: inv, lo: off[i], hi: off[i+1]})
		}
	}
	return inv
}

// BuildSubset constructs a compact filtered inversion: runs exist only
// for the hubs (and bit-parallel roots) that actually occur in the
// emitted entries, addressed through RunIndex, so a small vertex
// subset costs O(its label mass) — not O(n) — to register. emit has
// the Build contract.
//
//pllvet:ignore mmapwrite builder fills freshly allocated arrays before the Inverted is published
func BuildSubset(n, numBP int, bps1, bps0 []uint64, emit func(add func(run, vertex int32, dist uint32))) *Inverted {
	counts := map[int32]int64{}
	emit(func(run, vertex int32, dist uint32) { counts[run]++ })
	present := make([]int32, 0, len(counts))
	for run := range counts {
		present = append(present, run)
	}
	sort.Slice(present, func(i, j int) bool { return present[i] < present[j] })
	runIndex := make(map[int32]int32, len(present))
	off := make([]int64, len(present)+1)
	for i, run := range present {
		runIndex[run] = int32(i)
		off[i+1] = off[i] + counts[run]
	}
	total := off[len(present)]
	inv := &Inverted{
		N:        n,
		NumBP:    numBP,
		Off:      off,
		Vertex:   make([]int32, total),
		Dist:     make([]uint32, total),
		BPS1:     bps1,
		BPS0:     bps0,
		RunIndex: runIndex,
	}
	next := append([]int64(nil), off...)
	emit(func(run, vertex int32, dist uint32) {
		i := runIndex[run]
		p := next[i]
		inv.Vertex[p] = vertex
		inv.Dist[p] = dist
		next[i] = p + 1
	})
	for i := range present {
		if off[i+1]-off[i] > 1 {
			sort.Sort(runSorter{inv: inv, lo: off[i], hi: off[i+1]})
		}
	}
	return inv
}

// runSorter orders one run by (dist, vertex).
type runSorter struct {
	inv    *Inverted
	lo, hi int64
}

func (s runSorter) Len() int { return int(s.hi - s.lo) }
func (s runSorter) Less(i, j int) bool {
	a, b := s.lo+int64(i), s.lo+int64(j)
	if s.inv.Dist[a] != s.inv.Dist[b] {
		return s.inv.Dist[a] < s.inv.Dist[b]
	}
	return s.inv.Vertex[a] < s.inv.Vertex[b]
}

//pllvet:ignore mmapwrite sorts runs during Build, before the Inverted is published
func (s runSorter) Swap(i, j int) {
	a, b := s.lo+int64(i), s.lo+int64(j)
	s.inv.Dist[a], s.inv.Dist[b] = s.inv.Dist[b], s.inv.Dist[a]
	s.inv.Vertex[a], s.inv.Vertex[b] = s.inv.Vertex[b], s.inv.Vertex[a]
}

// Validate checks the structural invariants the query engines rely on:
// offsets spanning the entry arrays monotonically and, when full is
// set, every vertex in range and every run sorted by distance. Callers
// feed it decoded container sections; a built Inverted always passes.
func (inv *Inverted) Validate(full bool) error {
	runs := inv.NumRuns()
	if len(inv.Off) != runs+1 {
		return fmt.Errorf("inverted offsets sized %d, want %d runs+1", len(inv.Off), runs)
	}
	if len(inv.Dist) != len(inv.Vertex) {
		return fmt.Errorf("inverted vertex/dist sections differ in length (%d vs %d)", len(inv.Vertex), len(inv.Dist))
	}
	if inv.Off[0] != 0 || inv.Off[runs] != int64(len(inv.Vertex)) {
		return fmt.Errorf("inverted offsets do not span the entry array")
	}
	for i := 0; i < runs; i++ {
		if inv.Off[i+1] < inv.Off[i] {
			return fmt.Errorf("inverted offsets decreasing at run %d", i)
		}
	}
	if inv.NumBP > 0 {
		want := inv.NumBP * inv.N
		if len(inv.BPS1) != want || len(inv.BPS0) != want {
			return fmt.Errorf("inverted bit-parallel masks sized %d/%d, want %d", len(inv.BPS1), len(inv.BPS0), want)
		}
	}
	if !full {
		return nil
	}
	for i := 0; i < runs; i++ {
		prev := int64(-1)
		prevV := int32(-1)
		for p := inv.Off[i]; p < inv.Off[i+1]; p++ {
			v, d := inv.Vertex[p], int64(inv.Dist[p])
			if v < 0 || int(v) >= inv.N {
				return fmt.Errorf("inverted entry of run %d names vertex %d out of range [0,%d)", i, v, inv.N)
			}
			if d < prev || (d == prev && v <= prevV) {
				return fmt.Errorf("inverted run %d not sorted by (dist, vertex) at entry %d", i, p-inv.Off[i])
			}
			prev, prevV = d, v
		}
	}
	return nil
}
