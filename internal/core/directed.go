package core

import "pll/internal/graph"

// DirectedIndex is the §6 "Directed Graphs" variant: every vertex v
// carries two labels, L_OUT(v) of pairs (w, d(v,w)) and L_IN(v) of pairs
// (w, d(w,v)); the distance from s to t is the merge-join minimum over
// L_OUT(s) and L_IN(t). Labels are produced by a forward and a backward
// pruned BFS from each vertex in rank order. It is the 8-bit label
// store with distinct out and in families.
type DirectedIndex struct {
	store[uint8]
}

// Query returns the exact directed distance from s to t, or Unreachable.
func (ix *DirectedIndex) Query(s, t int32) int { return int(ix.distance(s, t)) }

// BuildDirected constructs a directed pruned-landmark-labeling index.
// The ordering ranks vertices on the underlying undirected structure;
// NumBitParallel is ignored.
func BuildDirected(g *graph.Digraph, opt Options) (*DirectedIndex, error) {
	h, perm, err := rankOrder(g, g.Underlying, opt)
	if err != nil {
		return nil, err
	}
	n := len(perm)
	out, in := newGrowing[uint8](n, opt.StorePaths), newGrowing[uint8](n, opt.StorePaths)
	// Forward: from vk over out-arcs, testing L_OUT(vk) against L_IN(u)
	// and labeling L_IN(u); backward: the mirror image.
	b := newBuilder(opt, nil, sweep[uint8]{h.OutNeighbors, out, in}, sweep[uint8]{h.InNeighbors, in, out})
	if err := b.run(EffectiveWorkers(opt.Workers)); err != nil {
		return nil, err
	}
	ix := &DirectedIndex{}
	ix.setOrder(VariantDirected, perm)
	ix.out = flatten(out.v, out.d, out.p)
	ix.in = flatten(in.v, in.d, in.p)
	return ix, nil
}
