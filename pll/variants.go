package pll

import (
	"io"

	"pll/internal/core"
	"pll/internal/graph"
)

// WeightedGraph is an immutable undirected graph with non-negative
// integer edge weights.
type WeightedGraph struct {
	g *graph.Weighted
}

// NewWeightedGraph builds a weighted undirected graph with n vertices.
// Parallel edges keep the minimum weight; self-loops are dropped.
func NewWeightedGraph(n int, edges []WeightedEdge) (*WeightedGraph, error) {
	g, err := graph.NewWeighted(n, edges)
	if err != nil {
		return nil, err
	}
	return &WeightedGraph{g: g}, nil
}

// LoadWeightedGraph reads "u v w" lines from r.
func LoadWeightedGraph(r io.Reader) (*WeightedGraph, error) {
	edges, n, err := graph.ReadWeightedEdgeList(r)
	if err != nil {
		return nil, err
	}
	return NewWeightedGraph(n, edges)
}

// NumVertices returns the number of vertices.
func (g *WeightedGraph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns the number of undirected edges.
func (g *WeightedGraph) NumEdges() int64 { return g.g.NumEdges() }

// build dispatches Build for weighted graphs.
func (g *WeightedGraph) build(opts []Option) (Oracle, error) { return BuildWeighted(g, opts...) }

// WeightedIndex is the exact distance oracle for weighted graphs (paper
// §6): identical labeling framework with pruned Dijkstra searches.
// Distances are summed edge weights.
type WeightedIndex struct {
	static
}

// BuildWeighted constructs a weighted pruned-landmark-labeling index.
// It is the typed form of Build(g) for a *WeightedGraph. Ordering,
// seed, custom-order, WithPaths and WithWorkers options apply;
// WithBitParallel is ignored, since bit-parallel labeling does not
// exist for the weighted variant (§6).
func BuildWeighted(g *WeightedGraph, opts ...Option) (*WeightedIndex, error) {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	ix, err := core.BuildWeighted(g.g, o)
	if err != nil {
		return nil, err
	}
	return &WeightedIndex{static{ix}}, nil
}

// PathWeight returns one minimum-weight path and its total weight, or
// (nil, Unreachable) for disconnected pairs. Requires WithPaths.
func (ix *WeightedIndex) PathWeight(s, t int32) ([]int32, int64, error) {
	p, w, err := ix.c.Path(s, t)
	if err != nil || p == nil {
		return nil, Unreachable, err
	}
	return p, w, nil
}

// Digraph is an immutable directed, unweighted graph.
type Digraph struct {
	g *graph.Digraph
}

// NewDigraph builds a directed graph with n vertices; each Edge{U,V} is
// the arc U -> V.
func NewDigraph(n int, arcs []Edge) (*Digraph, error) {
	g, err := graph.NewDigraph(n, arcs)
	if err != nil {
		return nil, err
	}
	return &Digraph{g: g}, nil
}

// LoadDigraph reads "u v" arc lines from r.
func LoadDigraph(r io.Reader) (*Digraph, error) {
	edges, n, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return NewDigraph(n, edges)
}

// NumVertices returns the number of vertices.
func (g *Digraph) NumVertices() int { return g.g.NumVertices() }

// NumArcs returns the number of directed arcs.
func (g *Digraph) NumArcs() int64 { return g.g.NumArcs() }

// build dispatches Build for directed graphs.
func (g *Digraph) build(opts []Option) (Oracle, error) { return BuildDirected(g, opts...) }

// DirectedIndex is the exact distance oracle for digraphs (paper §6):
// two labels per vertex, built by forward and backward pruned BFSs.
// Distance, Path and the search queries follow arc direction from s;
// Stats reports per-vertex sizes |L_OUT| + |L_IN|.
type DirectedIndex struct {
	static
}

// BuildDirected constructs a directed pruned-landmark-labeling index.
// It is the typed form of Build(g) for a *Digraph. Ordering, seed,
// custom-order, WithPaths and WithWorkers options apply;
// WithBitParallel is ignored.
func BuildDirected(g *Digraph, opts ...Option) (*DirectedIndex, error) {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	ix, err := core.BuildDirected(g.g, o)
	if err != nil {
		return nil, err
	}
	return &DirectedIndex{static{ix}}, nil
}
