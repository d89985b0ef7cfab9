package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/order"
)

// naiveComposite answers a normalized composite request by scanning
// every vertex against ground-truth distance rows — the reference the
// per-variant engines must match exactly.
func naiveComposite(n int, rows [][]int64, req *CompositeRequest) *CompositeResult {
	var ms []CompositeMatch
	for v := int32(0); int(v) < n; v++ {
		if !naiveClause(rows, req.Where, v) {
			continue
		}
		m := CompositeMatch{Vertex: v}
		if len(req.Rank.Terms) > 0 {
			m.Terms = make([]int64, len(req.Rank.Terms))
		}
		for i, t := range req.Rank.Terms {
			d := rows[t.Source][v]
			m.Terms[i] = d
			if d < 0 {
				m.Score = -1
			} else if m.Score >= 0 {
				if w := t.Weight * d; req.Rank.By == "max" {
					if w > m.Score {
						m.Score = w
					}
				} else {
					m.Score += w
				}
			}
		}
		ms = append(ms, m)
	}
	sortCompositeMatches(ms)
	out := &CompositeResult{Total: len(ms), Exact: true}
	if req.K > 0 && len(ms) > req.K {
		ms = ms[:req.K]
	}
	out.Matches = ms
	return out
}

func sortCompositeMatches(ms []CompositeMatch) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && compositeLess(ms[j], ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

func compositeLess(a, b CompositeMatch) bool {
	if (a.Score < 0) != (b.Score < 0) {
		return b.Score < 0
	}
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Vertex < b.Vertex
}

func naiveClause(rows [][]int64, c *CompositeClause, v int32) bool {
	switch {
	case c.Near != nil:
		d := rows[c.Near.Source][v]
		return d >= 0 && d <= c.Near.MaxDist
	case c.In != nil:
		for _, m := range c.In {
			if m == v {
				return true
			}
		}
		return false
	case c.Not != nil:
		return !naiveClause(rows, c.Not, v)
	case c.And != nil:
		for _, k := range c.And {
			if !naiveClause(rows, k, v) {
				return false
			}
		}
		return true
	default:
		for _, k := range c.Or {
			if naiveClause(rows, k, v) {
				return true
			}
		}
		return false
	}
}

// randomClause builds a valid random clause tree in ID space.
func randomClause(rng *rand.Rand, n, depth int, maxDist int64) *CompositeClause {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(4) == 0 {
			count := 1 + rng.Intn(4)
			members := make([]int32, 0, count)
			for i := 0; i < count; i++ {
				members = append(members, int32(rng.Intn(n))) // dups allowed: Normalize dedups
			}
			return &CompositeClause{In: members}
		}
		return &CompositeClause{Near: &NearClause{
			Source:  int32(rng.Intn(n)),
			MaxDist: int64(rng.Intn(int(maxDist) + 1)),
		}}
	}
	switch rng.Intn(3) {
	case 0:
		kids := []*CompositeClause{randomClause(rng, n, depth-1, maxDist)}
		for extra := rng.Intn(3); extra > 0; extra-- {
			if rng.Intn(3) == 0 {
				kids = append(kids, &CompositeClause{Not: randomClause(rng, n, depth-1, maxDist)})
			} else {
				kids = append(kids, randomClause(rng, n, depth-1, maxDist))
			}
		}
		return &CompositeClause{And: kids}
	case 1:
		kids := []*CompositeClause{randomClause(rng, n, depth-1, maxDist)}
		for extra := rng.Intn(3); extra > 0; extra-- {
			kids = append(kids, randomClause(rng, n, depth-1, maxDist))
		}
		return &CompositeClause{Or: kids}
	default:
		return randomClause(rng, n, depth-1, maxDist)
	}
}

func randomCompositeRequest(rng *rand.Rand, n int, maxDist int64) *CompositeRequest {
	req := &CompositeRequest{Where: randomClause(rng, n, 3, maxDist), K: rng.Intn(8)}
	switch rng.Intn(3) {
	case 0: // default ranking (near sources, weight 1, sum)
	case 1:
		req.Rank = &CompositeRank{By: "max"}
	default:
		rank := &CompositeRank{Terms: []CompositeTerm{}}
		if rng.Intn(2) == 0 {
			rank.By = "max"
		}
		seen := map[int32]bool{}
		for i := rng.Intn(4); i >= 0; i-- {
			s := int32(rng.Intn(n))
			if !seen[s] {
				seen[s] = true
				rank.Terms = append(rank.Terms, CompositeTerm{Source: s, Weight: int64(rng.Intn(4))})
			}
		}
		if len(rank.Terms) == 0 {
			rank.Terms = append(rank.Terms, CompositeTerm{Source: int32(rng.Intn(n)), Weight: 1})
		}
		req.Rank = rank
	}
	return req
}

type compositeOracle interface {
	Composite(req *CompositeRequest) (*CompositeResult, error)
}

// checkComposite runs random requests through the variant under test
// and asserts exact agreement with the full-scan reference.
func checkComposite(t *testing.T, name string, n int, o compositeOracle, rows [][]int64, maxDist int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		req := randomCompositeRequest(rng, n, maxDist)
		if err := req.Validate(); err != nil {
			t.Fatalf("%s trial %d: generator produced invalid request: %v", name, trial, err)
		}
		req.Normalize()
		got, err := o.Composite(req)
		if err != nil {
			t.Fatalf("%s trial %d: Composite: %v", name, trial, err)
		}
		want := naiveComposite(n, rows, req)
		if !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("%s trial %d: matches diverge\nrequest: %+v\ngot:  %+v\nwant: %+v",
				name, trial, req, got.Matches, want.Matches)
		}
		if got.Exact && got.Total != want.Total {
			t.Fatalf("%s trial %d: exact Total = %d, want %d", name, trial, got.Total, want.Total)
		}
		if !got.Exact && (got.Total > want.Total || got.Total < len(got.Matches)) {
			t.Fatalf("%s trial %d: lower-bound Total %d inconsistent (true %d, kept %d)",
				name, trial, got.Total, want.Total, len(got.Matches))
		}
	}
}

func bfsRows(n int, row func(s int32) []int64) [][]int64 {
	rows := make([][]int64, n)
	for s := 0; s < n; s++ {
		rows[s] = row(int32(s))
	}
	return rows
}

func TestCompositeUndirected(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		bp   int
	}{
		{"bp0", gen.ErdosRenyi(50, 100, 5), 0},
		{"bp4", gen.ErdosRenyi(50, 100, 5), 4},
		{"bp8", gen.ErdosRenyi(50, 100, 5), 8},
		// One root of this hub graph selects 64 neighbours, so streams
		// and range scans read every mask bit, 32–63 included.
		{"hub-bp16", gen.BarabasiAlbert(1000, 5, 7), 16},
	} {
		g, n := tc.g, tc.g.NumVertices()
		ix, err := Build(g, Options{Ordering: order.Degree, Seed: 5, NumBitParallel: tc.bp})
		if err != nil {
			t.Fatal(err)
		}
		rows := bfsRows(n, func(s int32) []int64 {
			row := bfs.AllDistances(g, s)
			out := make([]int64, len(row))
			for i, d := range row {
				out[i] = int64(d)
			}
			return out
		})
		checkComposite(t, tc.name, n, ix, rows, 8)
	}
}

// TestCompositeDisconnected covers components and isolated vertices:
// cross-component constraints must intersect to nothing, and ranking
// terms across components must produce -1 scores that sort last.
func TestCompositeDisconnected(t *testing.T) {
	g := gen.ErdosRenyi(40, 30, 9) // sparse: very likely disconnected
	ix, err := Build(g, Options{Ordering: order.Degree, Seed: 9, NumBitParallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := bfsRows(40, func(s int32) []int64 {
		row := bfs.AllDistances(g, s)
		out := make([]int64, len(row))
		for i, d := range row {
			out[i] = int64(d)
		}
		return out
	})
	checkComposite(t, "disconnected", 40, ix, rows, 12)
}

func TestCompositeDirected(t *testing.T) {
	n := 45
	dg := gen.RandomDigraph(n, 130, 13)
	ix, err := BuildDirected(dg, Options{Ordering: order.Degree, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rows := bfsRows(n, func(s int32) []int64 {
		row := bfs.DirectedAllDistances(dg, s, true)
		out := make([]int64, len(row))
		for i, d := range row {
			out[i] = int64(d)
		}
		return out
	})
	checkComposite(t, "directed", n, ix, rows, 8)
}

func TestCompositeWeighted(t *testing.T) {
	n := 40
	gg := gen.ErdosRenyi(n, 90, 17)
	wg := gen.RandomWeights(gg, 1, 9, 18)
	ix, err := BuildWeighted(wg, Options{Ordering: order.Degree, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rows := bfsRows(n, func(s int32) []int64 {
		row := bfs.DijkstraAll(wg, s)
		out := make([]int64, len(row))
		for i, d := range row {
			if d == bfs.InfWeight {
				out[i] = -1
			} else {
				out[i] = int64(d)
			}
		}
		return out
	})
	checkComposite(t, "weighted", n, ix, rows, 30)
}

// TestCompositeRequestErrors pins the error surface: structural
// problems and out-of-range vertices are errors, never panics.
func TestCompositeRequestErrors(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 3)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	near := func(s int32, d int64) *CompositeClause {
		return &CompositeClause{Near: &NearClause{Source: s, MaxDist: d}}
	}
	bad := []*CompositeRequest{
		{},                                       // no where
		{Where: &CompositeClause{}},              // empty clause
		{Where: near(0, 1), K: -1},               // negative k
		{Where: near(0, -1)},                     // negative cutoff
		{Where: near(12, 1)},                     // source out of range
		{Where: &CompositeClause{In: []int32{}}}, // empty in
		{Where: &CompositeClause{In: []int32{-3}}},                                                  // member out of range
		{Where: &CompositeClause{Not: near(0, 1)}},                                                  // top-level not
		{Where: &CompositeClause{Or: []*CompositeClause{{Not: near(0, 1)}, near(1, 1)}}},            // not under or
		{Where: &CompositeClause{And: []*CompositeClause{{Not: near(0, 1)}}}},                       // no positive child
		{Where: &CompositeClause{Near: &NearClause{Source: 0}, In: []int32{1}}},                     // two fields
		{Where: near(0, 1), Rank: &CompositeRank{By: "median"}},                                     // unknown agg
		{Where: near(0, 1), Rank: &CompositeRank{Terms: []CompositeTerm{{Source: 44}}}},             // term out of range
		{Where: near(0, 1), Rank: &CompositeRank{Terms: []CompositeTerm{{Source: 1, Weight: -2}}}},  // negative weight
		{Where: near(0, 1), Rank: &CompositeRank{Terms: []CompositeTerm{{Source: 1}, {Source: 1}}}}, // dup term
	}
	for i, req := range bad {
		if _, err := ix.Composite(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	// Depth cap.
	deep := near(0, 1)
	for i := 0; i < maxCompositeDepth+2; i++ {
		deep = &CompositeClause{And: []*CompositeClause{deep}}
	}
	if _, err := ix.Composite(&CompositeRequest{Where: deep}); err == nil {
		t.Error("over-deep clause tree accepted")
	}
	// And a well-formed request straight through Composite.
	res, err := ix.Composite(&CompositeRequest{
		Where: &CompositeClause{And: []*CompositeClause{
			near(0, 3),
			{Or: []*CompositeClause{near(1, 4), {In: []int32{2, 5, 5, 3}}}},
			{Not: near(2, 0)},
		}},
		K: 5,
	})
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if !res.Exact && res.Total < len(res.Matches) {
		t.Fatalf("inconsistent result: %+v", res)
	}
}
