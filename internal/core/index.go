// Package core implements pruned landmark labeling (PLL), the primary
// contribution of Akiba, Iwata and Yoshida (SIGMOD 2013), together with
// its bit-parallel labeling extension and the directed / weighted /
// shortest-path variants of §6.
//
// An Index is a distance-aware 2-hop cover: each vertex v carries a label
// L(v) of (hub, distance) pairs such that for every reachable pair (s,t)
// some hub on a shortest s-t path appears in both L(s) and L(t). A query
// is a merge join of two sorted label arrays plus a constant-time check
// against each bit-parallel root set (§5.3). Every static variant keeps
// its labels in the one generic label store of labels.go, and every
// variant's labels come from the one pruned-labeling builder of
// build.go and parallel.go.
package core

import (
	"errors"
	"math"
)

// InfDist is the in-label encoding of "unreachable". Labels store 8-bit
// distances (§4.5 "Arrays"): real distances must stay below InfDist.
const InfDist uint8 = math.MaxUint8

// MaxDist is the largest representable finite distance.
const MaxDist = int(InfDist) - 1

// Unreachable is returned by Query for disconnected pairs.
const Unreachable = -1

// infQuery is the dynamic index's query accumulator's initial value.
// Any real answer is at most 2*MaxDist = 508 (two 8-bit label distances
// summed as ints), so a result that still equals infQuery means no hub
// connects the pair.
const infQuery = int(InfDist) + int(InfDist)

// ErrDiameterTooLarge is returned by Build when a breadth-first search
// exceeds the 8-bit distance budget. The paper targets small-world
// networks where this cannot happen; structured graphs with diameter
// >= 255 need the weighted variant (32-bit distances).
var ErrDiameterTooLarge = errors.New("core: graph diameter exceeds the 8-bit distance budget (254)")

// Index is an immutable pruned-landmark-labeling index over an
// undirected, unweighted graph: the 8-bit instance of the label store
// with one label family and, optionally, bit-parallel labels and parent
// pointers. Build one with Build; query it with Query or Path.
type Index struct {
	store[uint8]
}

// NumBitParallelRoots returns how many bit-parallel BFS roots were used.
func (ix *Index) NumBitParallelRoots() int { return ix.numBP }

// Query returns the exact shortest-path distance between vertices s and
// t, or Unreachable if they are in different components. It panics if s
// or t is out of range, mirroring slice indexing semantics.
func (ix *Index) Query(s, t int32) int { return int(ix.distance(s, t)) }
