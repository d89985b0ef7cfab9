// Package core implements pruned landmark labeling (PLL), the primary
// contribution of Akiba, Iwata and Yoshida (SIGMOD 2013), together with
// its bit-parallel labeling extension and the directed / weighted /
// shortest-path variants of §6.
//
// An Index is a distance-aware 2-hop cover: each vertex v carries a label
// L(v) of (hub, distance) pairs such that for every reachable pair (s,t)
// some hub on a shortest s-t path appears in both L(s) and L(t). A query
// is a merge join of two sorted label arrays plus a constant-time check
// against each bit-parallel root set (§5.3).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// InfDist is the in-label encoding of "unreachable". Labels store 8-bit
// distances (§4.5 "Arrays"): real distances must stay below InfDist.
const InfDist uint8 = math.MaxUint8

// MaxDist is the largest representable finite distance.
const MaxDist = int(InfDist) - 1

// Unreachable is returned by Query for disconnected pairs.
const Unreachable = -1

// infQuery is the query accumulator's initial value. Any real answer is
// at most 2*MaxDist = 508 (two 8-bit label distances summed as ints), so
// a result that still equals infQuery means no hub connects the pair.
const infQuery = int(InfDist) + int(InfDist)

// ErrDiameterTooLarge is returned by Build when a breadth-first search
// exceeds the 8-bit distance budget. The paper targets small-world
// networks where this cannot happen; structured graphs with diameter
// >= 255 need the weighted variant (32-bit distances).
var ErrDiameterTooLarge = errors.New("core: graph diameter exceeds the 8-bit distance budget (254)")

// Index is an immutable pruned-landmark-labeling index over an
// undirected, unweighted graph. Build one with Build; query it with
// Query or QueryPath.
//
// Internally vertices are identified by rank (position in the
// construction order): labels store ranks so that they are sorted
// automatically (§4.5 "Sorting Labels"), and the arrays of hub ranks and
// distances are kept separate (§4.5 "Querying"). Each per-vertex label
// ends with a sentinel pair (n, InfDist) so the merge join needs no
// bounds checks.
type Index struct {
	n      int
	origin Variant // VariantDynamic when frozen from a DynamicIndex, else undirected
	perm   []int32 // rank -> original vertex ID
	rank   []int32 // original vertex ID -> rank

	labelOff    []int64 // len n+1, offsets into the label arrays, indexed by rank
	labelVertex []int32 // hub ranks, ascending per vertex, sentinel n
	labelDist   []uint8 // distances parallel to labelVertex, sentinel InfDist
	labelParent []int32 // optional BFS-tree parents (ranks), sentinel -1; nil unless built with StorePaths

	numBP  int      // number of bit-parallel roots (t in §5.4)
	bpDist []uint8  // [n][numBP] distances from BP root i, flattened v*numBP+i (per-vertex interleaving keeps prune tests and queries on one cache line)
	bpS1   []uint64 // S^{-1} sets as 64-bit masks, same layout
	bpS0   []uint64 // S^{0} sets, same layout

	batchPool sync.Pool   // recycles *BatchSource scratch for DistanceFrom
	search    searchState // lazily built hub-inverted index (search.go)
}

// NumVertices returns the number of vertices the index covers.
func (ix *Index) NumVertices() int { return ix.n }

// Variant reports the flavor recorded in container headers and Stats:
// undirected, or dynamic for indexes frozen from a DynamicIndex (the
// provenance survives serialization round trips).
func (ix *Index) Variant() Variant {
	if ix.origin == VariantDynamic {
		return VariantDynamic
	}
	return VariantUndirected
}

// NumBitParallelRoots returns how many bit-parallel BFS roots were used.
func (ix *Index) NumBitParallelRoots() int { return ix.numBP }

// HasPaths reports whether the index stores parent pointers and can
// answer QueryPath.
func (ix *Index) HasPaths() bool { return ix.labelParent != nil }

// Query returns the exact shortest-path distance between vertices s and
// t, or Unreachable if they are in different components. It panics if s
// or t is out of range, mirroring slice indexing semantics.
func (ix *Index) Query(s, t int32) int {
	if s == t {
		return 0
	}
	rs, rt := ix.rank[s], ix.rank[t]
	best := ix.bpQuery(rs, rt, infQuery)
	best = ix.normalQuery(rs, rt, best)
	if best >= infQuery {
		return Unreachable
	}
	return best
}

// bpQuery lowers best using the bit-parallel labels (§5.3): for each BP
// root r with neighbor set S_r, the distance through {r} ∪ S_r is
// d(s,r)+d(r,t) minus 2 if the S^{-1} sets intersect, minus 1 if an
// S^{-1} set meets an S^{0} set.
func (ix *Index) bpQuery(rs, rt int32, best int) int {
	os, ot := int(rs)*ix.numBP, int(rt)*ix.numBP
	for i := 0; i < ix.numBP; i++ {
		ds, dt := ix.bpDist[os+i], ix.bpDist[ot+i]
		if ds == InfDist || dt == InfDist {
			continue
		}
		td := int(ds) + int(dt)
		if td-2 < best {
			s1s, s1t := ix.bpS1[os+i], ix.bpS1[ot+i]
			s0s, s0t := ix.bpS0[os+i], ix.bpS0[ot+i]
			if s1s&s1t != 0 {
				td -= 2
			} else if s1s&s0t != 0 || s0s&s1t != 0 {
				td -= 1
			}
			if td < best {
				best = td
			}
		}
	}
	return best
}

// normalQuery lowers best using the sentinel-terminated merge join over
// the two sorted label arrays.
func (ix *Index) normalQuery(rs, rt int32, best int) int {
	i, j := ix.labelOff[rs], ix.labelOff[rt]
	for {
		vs, vt := ix.labelVertex[i], ix.labelVertex[j]
		switch {
		case vs == vt:
			if int(vs) == ix.n { // both hit the sentinel
				return best
			}
			if d := int(ix.labelDist[i]) + int(ix.labelDist[j]); d < best {
				best = d
			}
			i++
			j++
		case vs < vt:
			i++
		default:
			j++
		}
	}
}

// Label returns the (hub, distance) pairs of vertex v's normal label with
// hubs translated back to original vertex IDs, excluding the sentinel.
// It is intended for inspection and experiments, not hot paths.
func (ix *Index) Label(v int32) (hubs []int32, dists []uint8) {
	r := ix.rank[v]
	lo, hi := ix.labelOff[r], ix.labelOff[r+1]-1 // drop sentinel
	hubs = make([]int32, 0, hi-lo)
	dists = make([]uint8, 0, hi-lo)
	for i := lo; i < hi; i++ {
		hubs = append(hubs, ix.perm[ix.labelVertex[i]])
		dists = append(dists, ix.labelDist[i])
	}
	return hubs, dists
}

// LabelSize returns the number of entries in v's normal label (sentinel
// excluded).
func (ix *Index) LabelSize(v int32) int {
	r := ix.rank[v]
	return int(ix.labelOff[r+1] - ix.labelOff[r] - 1)
}

// Stats summarizes an index for the paper's IS / LN columns. Every
// variant produces the same struct, so metrics and serving layers can
// introspect any oracle uniformly; Variant names the flavor.
type Stats struct {
	Variant            Variant
	NumVertices        int
	NumBitParallel     int
	TotalLabelEntries  int64   // normal label entries over all vertices (no sentinels)
	AvgLabelSize       float64 // LN's left component
	MaxLabelSize       int
	IndexBytes         int64 // estimated in-memory footprint of label + BP arrays
	BitParallelBytes   int64
	NormalLabelBytes   int64
	HasParentPointers  bool
	LabelSizeQuantiles [5]int // min, p25, p50, p75, max of per-vertex label sizes

	// Hub-occupancy distribution: how the normal label entries spread
	// over hubs (the inverted view behind the search subsystem).
	DistinctHubs int     // hubs carried by at least one label entry
	MaxHubLoad   int     // label entries carried by the most frequent hub
	AvgHubLoad   float64 // label entries per occupied hub
}

// ComputeStats scans the index and returns summary statistics.
func (ix *Index) ComputeStats() Stats {
	st := Stats{
		Variant:           ix.Variant(),
		NumVertices:       ix.n,
		NumBitParallel:    ix.numBP,
		HasParentPointers: ix.HasPaths(),
	}
	sizes := make([]int, ix.n)
	for r := 0; r < ix.n; r++ {
		sz := int(ix.labelOff[r+1] - ix.labelOff[r] - 1)
		sizes[r] = sz
		st.TotalLabelEntries += int64(sz)
		if sz > st.MaxLabelSize {
			st.MaxLabelSize = sz
		}
	}
	if ix.n > 0 {
		st.AvgLabelSize = float64(st.TotalLabelEntries) / float64(ix.n)
	}
	insertionSortQuantiles(sizes, &st.LabelSizeQuantiles)
	applyHubStats(&st, ix.n, ix.labelVertex)
	st.NormalLabelBytes = int64(len(ix.labelVertex))*4 + int64(len(ix.labelDist))
	if ix.labelParent != nil {
		st.NormalLabelBytes += int64(len(ix.labelParent)) * 4
	}
	st.BitParallelBytes = int64(len(ix.bpDist)) + int64(len(ix.bpS1))*8 + int64(len(ix.bpS0))*8
	st.IndexBytes = st.NormalLabelBytes + st.BitParallelBytes + int64(len(ix.labelOff))*8 + int64(len(ix.perm))*8
	return st
}

// insertionSortQuantiles fills q with min/p25/p50/p75/max of sizes.
func insertionSortQuantiles(sizes []int, q *[5]int) {
	if len(sizes) == 0 {
		return
	}
	sorted := make([]int, len(sizes))
	copy(sorted, sizes)
	sort.Ints(sorted)
	n := len(sorted)
	q[0] = sorted[0]
	q[1] = sorted[n/4]
	q[2] = sorted[n/2]
	q[3] = sorted[3*n/4]
	q[4] = sorted[n-1]
}

// LabelSizeDistribution returns per-vertex normal label sizes sorted
// ascending (Figure 3c).
func (ix *Index) LabelSizeDistribution() []int {
	sizes := make([]int, ix.n)
	for r := 0; r < ix.n; r++ {
		sizes[r] = int(ix.labelOff[r+1] - ix.labelOff[r] - 1)
	}
	sort.Ints(sizes)
	return sizes
}

// QueryPath returns one exact shortest path (inclusive of endpoints)
// between s and t, or nil if unreachable. The index must have been built
// with StorePaths; otherwise an error is returned.
func (ix *Index) QueryPath(s, t int32) ([]int32, error) {
	if ix.labelParent == nil {
		return nil, errors.New("core: index was built without StorePaths")
	}
	if s == t {
		return []int32{s}, nil
	}
	rs, rt := ix.rank[s], ix.rank[t]
	// Find the hub achieving the minimum via the merge join.
	best := infQuery
	hub := int32(-1)
	i, j := ix.labelOff[rs], ix.labelOff[rt]
	for {
		vs, vt := ix.labelVertex[i], ix.labelVertex[j]
		if vs == vt {
			if int(vs) == ix.n {
				break
			}
			if d := int(ix.labelDist[i]) + int(ix.labelDist[j]); d < best {
				best = d
				hub = vs
			}
			i++
			j++
		} else if vs < vt {
			i++
		} else {
			j++
		}
	}
	if hub < 0 {
		return nil, nil // unreachable
	}
	// Walk parent chains from both endpoints up to the hub. Every vertex
	// on the pruned-BFS tree path from the hub to a labeled vertex is
	// itself labeled with the hub (it was expanded, hence labeled), so
	// the chains are well defined.
	up, err := ix.chainToHub(rs, hub)
	if err != nil {
		return nil, err
	}
	down, err := ix.chainToHub(rt, hub)
	if err != nil {
		return nil, err
	}
	// up = [s ... hub], down = [t ... hub]; join them.
	path := make([]int32, 0, len(up)+len(down)-1)
	for _, r := range up {
		path = append(path, ix.perm[r])
	}
	for k := len(down) - 2; k >= 0; k-- {
		path = append(path, ix.perm[down[k]])
	}
	return path, nil
}

// chainToHub follows parent pointers from rank r to the hub rank,
// returning the rank sequence [r ... hub]. A BFS-tree chain has exactly
// d(r, hub) steps, the distance r's label records for the hub, so a
// longer walk means corrupt parent pointers (a cycle in a loaded file)
// and is reported instead of followed forever.
func (ix *Index) chainToHub(r, hub int32) ([]int32, error) {
	chain := []int32{r}
	cur := r
	steps := -1 // d(r, hub), read from r's label on the first step
	for cur != hub {
		lo, hi := ix.labelOff[cur], ix.labelOff[cur+1]-1
		idx := searchLabel(ix.labelVertex[lo:hi], hub)
		if idx < 0 {
			return nil, fmt.Errorf("core: broken parent chain at rank %d for hub %d", cur, hub)
		}
		if steps < 0 {
			steps = int(ix.labelDist[lo+int64(idx)])
		}
		if len(chain) > steps {
			return nil, fmt.Errorf("core: parent chain from rank %d exceeds its distance %d to hub %d", r, steps, hub)
		}
		p := ix.labelParent[lo+int64(idx)]
		if p < 0 { // reached the hub's own self entry
			break
		}
		chain = append(chain, p)
		cur = p
	}
	return chain, nil
}

// searchLabel finds hub in the sorted rank slice, returning its position
// or -1.
func searchLabel(vertices []int32, hub int32) int {
	lo, hi := 0, len(vertices)
	for lo < hi {
		mid := (lo + hi) / 2
		if vertices[mid] < hub {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(vertices) && vertices[lo] == hub {
		return lo
	}
	return -1
}
