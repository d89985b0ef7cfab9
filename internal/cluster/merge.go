package cluster

// Top-k reductions over per-shard answers. Both merges reproduce the
// orderings the replicas themselves produce (internal/hubsearch for
// neighbors, the composite engine for matches), including the
// tie-at-cutoff rule — smallest IDs win — so merging N identical
// replica answers yields exactly the answer again, and merging
// disjoint shard answers yields the global top-k.

import (
	"sort"

	"pll/pll"
)

// mergeNeighbors unions the shard answers, keeping the minimum
// distance per vertex, sorts by (distance, vertex) and trims to k.
// k < 0 means no trim (the caller applies its own limit).
func mergeNeighbors(shards [][]pll.Neighbor, k int) []pll.Neighbor {
	best := make(map[int32]int64)
	for _, ns := range shards {
		for _, nb := range ns {
			if d, ok := best[nb.Vertex]; !ok || nb.Distance < d {
				best[nb.Vertex] = nb.Distance
			}
		}
	}
	out := make([]pll.Neighbor, 0, len(best))
	for v, d := range best {
		out = append(out, pll.Neighbor{Vertex: v, Distance: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Vertex < out[j].Vertex
	})
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// matchLess is the composite result ordering: fully reachable matches
// first (Score >= 0), then ascending score, then vertex ID.
func matchLess(a, b pll.CompositeMatch) bool {
	if (a.Score < 0) != (b.Score < 0) {
		return b.Score < 0
	}
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Vertex < b.Vertex
}

// mergeMatches unions the shard answers, keeping the best-ordered
// match per vertex, sorts by matchLess and trims to k (0 = untrimmed).
func mergeMatches(shards [][]pll.CompositeMatch, k int) []pll.CompositeMatch {
	best := make(map[int32]pll.CompositeMatch)
	for _, ms := range shards {
		for _, m := range ms {
			if prev, ok := best[m.Vertex]; !ok || matchLess(m, prev) {
				best[m.Vertex] = m
			}
		}
	}
	out := make([]pll.CompositeMatch, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return matchLess(out[i], out[j]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
