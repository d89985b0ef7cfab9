// Package pll is the public API of this repository: an exact
// shortest-path distance oracle for large networks, implementing
// "Fast Exact Shortest-Path Distance Queries on Large Networks by Pruned
// Landmark Labeling" (Akiba, Iwata, Yoshida; SIGMOD 2013).
//
// Basic use:
//
//	g, _ := pll.NewGraph(4, []pll.Edge{{0, 1}, {1, 2}, {2, 3}})
//	ix, _ := pll.Build(g, pll.WithBitParallel(16))
//	d := ix.Distance(0, 3) // 3, in ~microseconds regardless of graph size
//
// The index construction runs a pruned breadth-first search from every
// vertex in degree order (optionally preceded by bit-parallel BFSs), and
// queries merge-join two small sorted label arrays.
//
// Construction is parallel by default (WithWorkers; 0 means GOMAXPROCS):
// pruned searches run in rank-ordered batches against the frozen labels
// of earlier ranks and merge deterministically, so the index — every
// label, parent pointer and serialized byte — is identical to a
// sequential build regardless of worker count. Build returns only after
// all workers finish.
//
// Every index flavor — undirected (*Index), directed (*DirectedIndex),
// weighted (*WeightedIndex) and dynamic (*DynamicIndex) — implements
// the Oracle interface, Build dispatches on the graph kind, and all
// variants serialize through WriteTo (or WriteFlatFile) into one
// self-describing, flat container format that is read back without
// being told the variant.
//
// Two ways to get an index file serving:
//
//   - Load / LoadFile copy the container onto the heap and validate
//     every entry — right for ad-hoc tooling and untrusted input.
//   - Open memory-maps the container and serves it zero-copy: startup
//     is O(1) in the label count, pages are shared across processes
//     and the index may exceed the heap — right for servers that
//     restart or hot-reload.
//
// Optional query surfaces are capability interfaces discovered by
// type-assertion: Batcher (amortized single-source batch distances,
// implemented by every variant), Searcher (exact kNN, range and
// nearest-in-subset queries over the inverted labels, implemented by
// every immutable variant) and Closer (resource-backed oracles).
package pll

import (
	"fmt"
	"io"

	"pll/internal/core"
	"pll/internal/graph"
	"pll/internal/order"
)

// Edge is an undirected edge (or a directed arc U -> V for digraphs).
type Edge = graph.Edge

// WeightedEdge is an undirected edge with a non-negative integer weight.
type WeightedEdge = graph.WeightedEdge

// Unreachable is returned by distance queries for disconnected pairs.
const Unreachable = core.Unreachable

// Graph is an immutable undirected, unweighted graph.
type Graph struct {
	g *graph.Graph
}

// NewGraph builds an undirected graph with n vertices. Self-loops are
// dropped and parallel edges collapsed.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// LoadGraph reads a whitespace-separated edge list ("u v" per line,
// '#'/'%' comments) from r, compacting sparse vertex IDs.
func LoadGraph(r io.Reader) (*Graph, error) {
	edges, n, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return NewGraph(n, edges)
}

// LoadGraphFile reads an edge-list file.
func LoadGraphFile(path string) (*Graph, error) {
	g, err := graph.LoadGraphFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.g.NumEdges() }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int { return g.g.Degree(v) }

// Neighbors returns the sorted adjacency list of v. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.g.Neighbors(v) }

// Ordering selects the vertex-ordering strategy used during construction
// (paper §4.4). The default, OrderDegree, is almost always right.
type Ordering = order.Strategy

// Ordering strategies. Degree, Random and Closeness are the paper's
// §4.4.2 strategies; Betweenness (sampled Brandes) computes the paper's
// motivating quantity — how many shortest paths pass through a vertex —
// directly, as an ablation.
const (
	OrderDegree      = order.Degree
	OrderRandom      = order.Random
	OrderCloseness   = order.Closeness
	OrderBetweenness = order.Betweenness
)

// Option configures Build.
type Option func(*core.Options)

// WithOrdering selects the vertex-ordering strategy.
func WithOrdering(o Ordering) Option {
	return func(opt *core.Options) { opt.Ordering = o }
}

// WithSeed fixes the randomness seed; identical seeds give identical
// indexes.
func WithSeed(seed uint64) Option {
	return func(opt *core.Options) { opt.Seed = seed }
}

// WithBitParallel sets t, the number of bit-parallel BFSs performed
// before pruned labeling (paper §5.4; 16-64 is a good range for large
// networks, 0 disables).
func WithBitParallel(t int) Option {
	return func(opt *core.Options) { opt.NumBitParallel = t }
}

// WithPaths stores per-label parent pointers so Path can reconstruct
// shortest paths. Implies bit-parallel labeling off.
func WithPaths() Option {
	return func(opt *core.Options) { opt.StorePaths = true }
}

// WithCustomOrder overrides the ordering strategy with an explicit
// permutation perm[rank] = vertex.
func WithCustomOrder(perm []int32) Option {
	return func(opt *core.Options) { opt.CustomOrder = perm }
}

// Index is an exact distance oracle over an undirected, unweighted graph.
type Index struct {
	static
	ix *core.Index
}

func newIndex(ix *core.Index) *Index { return &Index{static{ix}, ix} }

// build dispatches Build for undirected graphs.
func (g *Graph) build(opts []Option) (Oracle, error) { return BuildIndex(g, opts...) }

// BuildIndex constructs the pruned-landmark-labeling index for an
// undirected, unweighted graph. It is the typed form of Build(g).
func BuildIndex(g *Graph, opts ...Option) (*Index, error) {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	ix, err := core.Build(g.g, o)
	if err != nil {
		return nil, err
	}
	return newIndex(ix), nil
}

// Stats describes the index (average label size, byte footprint, ...).
type Stats = core.Stats

// LoadIndex reads an undirected index, rejecting other variants with a
// descriptive error. Use Load when the variant is not known up front.
func LoadIndex(r io.Reader) (*Index, error) {
	o, err := Load(r)
	if err != nil {
		return nil, err
	}
	return asIndex(o)
}

// LoadIndexFile reads an undirected index file, rejecting other
// variants.
func LoadIndexFile(path string) (*Index, error) {
	o, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	return asIndex(o)
}

func asIndex(o Oracle) (*Index, error) {
	ix, ok := o.(*Index)
	if !ok {
		return nil, fmt.Errorf("pll: expected an undirected index, the file holds the %s variant", variantOf(o))
	}
	return ix, nil
}
