package core

// Composite-search capability: multi-constraint queries over the
// hub-inverted labels, answered by the streaming engine in
// internal/runquery. A request is a small boolean tree of distance
// constraints (near / and / or / not / in) plus a ranking expression
// (sum, max or weighted sum of distances to named sources) and an
// optional top-k limit — "within d₁ of A and d₂ of B, not within d₃ of
// C, ranked by combined distance, top k" in one call, with no
// intermediate neighborhood materialized.
//
// This file owns the ID-space request/response types shared by the
// public API, the HTTP server and the CLI, and the entry point that
// presents an index to the rank-space engine; the engine tests
// candidates against non-driving constraints through the pinned-label
// prober of batchfrom.go (the §4.5 single-source trick).

import (
	"errors"
	"fmt"
	"sort"

	"pll/internal/runquery"
)

// NearClause matches every vertex within MaxDist of Source (the source
// itself included — d(s,s) = 0).
type NearClause struct {
	Source  int32 `json:"source"`
	MaxDist int64 `json:"max_dist"`
}

// CompositeClause is one constraint-tree node; exactly one field must
// be set. Not-clauses may appear only as direct children of an
// and-clause with at least one positive sibling — anything else would
// describe an unbounded complement set.
type CompositeClause struct {
	Near *NearClause        `json:"near,omitempty"`
	And  []*CompositeClause `json:"and,omitempty"`
	Or   []*CompositeClause `json:"or,omitempty"`
	Not  *CompositeClause   `json:"not,omitempty"`
	In   []int32            `json:"in,omitempty"`
}

// CompositeTerm is one ranking term: the distance from Source scaled by
// Weight (0 normalizes to 1).
type CompositeTerm struct {
	Source int32 `json:"source"`
	Weight int64 `json:"weight,omitempty"`
}

// CompositeRank selects the ranking expression: By is "sum" (default)
// or "max" over the weighted term distances. Empty Terms default to the
// tree's near-constraint sources, in tree order, weight 1.
type CompositeRank struct {
	By    string          `json:"by,omitempty"`
	Terms []CompositeTerm `json:"terms,omitempty"`
}

// CompositeRequest is a full composite query in vertex-ID space.
type CompositeRequest struct {
	Where *CompositeClause `json:"where"`
	Rank  *CompositeRank   `json:"rank,omitempty"`
	// K trims to the k best-scored matches (smallest vertex IDs win
	// ties); 0 returns every match.
	K int `json:"k,omitempty"`
}

// CompositeMatch is one answer: a vertex, its combined score, and the
// per-term raw distances (-1 for an unreachable term, which also makes
// Score -1 and sorts the match after every fully reachable one).
type CompositeMatch struct {
	Vertex int32   `json:"vertex"`
	Score  int64   `json:"score"`
	Terms  []int64 `json:"terms,omitempty"`
}

// CompositeResult is a composite answer: matches sorted by (score,
// vertex ID) with unreachable-scored matches last. Total counts the
// matches before the K trim — exact when Exact is set, a lower bound
// when top-k pruning stopped the scan early.
type CompositeResult struct {
	Matches []CompositeMatch `json:"matches"`
	Total   int              `json:"total"`
	Exact   bool             `json:"exact"`
	// Scanned counts the label entries the hub-run scans advanced; it is
	// a profiling figure, not part of the wire shape.
	Scanned int64 `json:"-"`
}

// maxCompositeDepth caps constraint-tree nesting so a hostile request
// cannot drive unbounded recursion.
const maxCompositeDepth = 16

// Validate checks the request's structure — clause shape, not
// placement, nesting depth, ranking sanity — without an index: vertex
// range errors surface from Composite itself. Safe on untrusted input.
func (r *CompositeRequest) Validate() error {
	if r.Where == nil {
		return errors.New("core: composite request has no where-clause")
	}
	if r.K < 0 {
		return fmt.Errorf("core: negative k %d", r.K)
	}
	if err := validateClause(r.Where, 0, false); err != nil {
		return err
	}
	if r.Rank == nil {
		return nil
	}
	switch r.Rank.By {
	case "", "sum", "max":
	default:
		return fmt.Errorf("core: unknown ranking %q (want \"sum\" or \"max\")", r.Rank.By)
	}
	if len(r.Rank.Terms) > runquery.MaxTerms {
		return fmt.Errorf("core: %d ranking terms exceed the limit of %d", len(r.Rank.Terms), runquery.MaxTerms)
	}
	seen := make(map[int32]struct{}, len(r.Rank.Terms))
	for _, t := range r.Rank.Terms {
		if t.Weight < 0 || t.Weight > runquery.MaxWeight {
			return fmt.Errorf("core: ranking weight %d outside [0,%d]", t.Weight, runquery.MaxWeight)
		}
		if _, dup := seen[t.Source]; dup {
			return fmt.Errorf("core: duplicate ranking term for vertex %d", t.Source)
		}
		seen[t.Source] = struct{}{}
	}
	return nil
}

func validateClause(c *CompositeClause, depth int, underAnd bool) error {
	if c == nil {
		return errors.New("core: nil clause")
	}
	if depth > maxCompositeDepth {
		return fmt.Errorf("core: clause tree deeper than %d", maxCompositeDepth)
	}
	fields := 0
	if c.Near != nil {
		fields++
	}
	if c.And != nil {
		fields++
	}
	if c.Or != nil {
		fields++
	}
	if c.Not != nil {
		fields++
	}
	if c.In != nil {
		fields++
	}
	if fields != 1 {
		return fmt.Errorf("core: clause must set exactly one of near/and/or/not/in, has %d", fields)
	}
	switch {
	case c.Near != nil:
		if c.Near.MaxDist < 0 {
			return fmt.Errorf("core: negative max_dist %d", c.Near.MaxDist)
		}
	case c.In != nil:
		if len(c.In) == 0 {
			return errors.New("core: empty in-clause")
		}
	case c.And != nil:
		if len(c.And) == 0 {
			return errors.New("core: empty and-clause")
		}
		positive := 0
		for _, k := range c.And {
			if k != nil && k.Not == nil {
				positive++
			}
			if err := validateClause(k, depth+1, true); err != nil {
				return err
			}
		}
		if positive == 0 {
			return errors.New("core: and-clause needs at least one positive child")
		}
	case c.Or != nil:
		if len(c.Or) == 0 {
			return errors.New("core: empty or-clause")
		}
		for _, k := range c.Or {
			if k != nil && k.Not != nil {
				return errors.New("core: not-clause must sit directly under an and-clause")
			}
			if err := validateClause(k, depth+1, false); err != nil {
				return err
			}
		}
	case c.Not != nil:
		if !underAnd {
			return errors.New("core: not-clause must sit directly under an and-clause")
		}
		if c.Not.Not != nil {
			return errors.New("core: nested not-clauses are not supported")
		}
		return validateClause(c.Not, depth+1, false)
	}
	return nil
}

// Normalize fills defaults in place so equal queries become equal
// values: missing Rank expands to the tree's near sources in tree order
// with weight 1, zero weights become 1, By defaults to "sum", and
// in-clauses are sorted and deduplicated. Idempotent; callers may
// canonicalize a normalized request (e.g. as a cache key). Call after
// Validate.
func (r *CompositeRequest) Normalize() {
	normalizeClause(r.Where)
	if r.Rank == nil {
		r.Rank = &CompositeRank{}
	}
	if r.Rank.By == "" {
		r.Rank.By = "sum"
	}
	if r.Rank.Terms == nil {
		for _, s := range nearSources(r.Where, nil) {
			r.Rank.Terms = append(r.Rank.Terms, CompositeTerm{Source: s, Weight: 1})
		}
	}
	for i := range r.Rank.Terms {
		if r.Rank.Terms[i].Weight == 0 {
			r.Rank.Terms[i].Weight = 1
		}
	}
}

func normalizeClause(c *CompositeClause) {
	switch {
	case c == nil:
	case c.In != nil:
		sort.Slice(c.In, func(i, j int) bool { return c.In[i] < c.In[j] })
		out := c.In[:0]
		var prev int32
		for i, v := range c.In {
			if i == 0 || v != prev {
				out = append(out, v)
			}
			prev = v
		}
		c.In = out
	case c.Not != nil:
		normalizeClause(c.Not)
	default:
		for _, k := range append(c.And, c.Or...) {
			normalizeClause(k)
		}
	}
}

// nearSources appends every near-clause source in tree order, without
// duplicates.
func nearSources(c *CompositeClause, dst []int32) []int32 {
	switch {
	case c == nil:
	case c.Near != nil:
		for _, s := range dst {
			if s == c.Near.Source {
				return dst
			}
		}
		return append(dst, c.Near.Source)
	case c.Not != nil:
		return nearSources(c.Not, dst)
	default:
		for _, k := range append(c.And, c.Or...) {
			dst = nearSources(k, dst)
		}
	}
	return dst
}

// Fanout counts the request's leaf work items — near constraints,
// in-clause members and ranking terms — the quantity servers cap
// against their batch limits.
func (r *CompositeRequest) Fanout() int {
	total := clauseFanout(r.Where)
	if r.Rank != nil {
		total += len(r.Rank.Terms)
	}
	return total
}

func clauseFanout(c *CompositeClause) int {
	switch {
	case c == nil:
		return 0
	case c.Near != nil:
		return 1
	case c.In != nil:
		return len(c.In)
	case c.Not != nil:
		return clauseFanout(c.Not)
	default:
		total := 0
		for _, k := range append(c.And, c.Or...) {
			total += clauseFanout(k)
		}
		return total
	}
}

// toRankQuery validates vertex ranges, maps the request into rank space
// and normalizes defaults. rank is the ID→rank permutation.
func (r *CompositeRequest) toRankQuery(n int, rank []int32) (*runquery.Query, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	r.Normalize()
	root, err := clauseToNode(r.Where, n, rank)
	if err != nil {
		return nil, err
	}
	q := &runquery.Query{Root: root, K: r.K}
	if r.Rank.By == "max" {
		q.Agg = runquery.AggMax
	}
	for _, t := range r.Rank.Terms {
		if t.Source < 0 || int(t.Source) >= n {
			return nil, fmt.Errorf("core: ranking term vertex %d out of range [0,%d)", t.Source, n)
		}
		q.Terms = append(q.Terms, runquery.Term{Source: rank[t.Source], Weight: t.Weight})
	}
	return q, nil
}

func clauseToNode(c *CompositeClause, n int, rank []int32) (*runquery.Node, error) {
	switch {
	case c.Near != nil:
		s := c.Near.Source
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("core: near vertex %d out of range [0,%d)", s, n)
		}
		return &runquery.Node{Op: runquery.OpNear, Source: rank[s], Cutoff: c.Near.MaxDist}, nil
	case c.In != nil:
		members := make([]int32, 0, len(c.In))
		for _, v := range c.In {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("core: in-clause vertex %d out of range [0,%d)", v, n)
			}
			members = append(members, rank[v])
		}
		// Distinct IDs map to distinct ranks, so sorting restores the
		// engine's strictly ascending contract.
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		return &runquery.Node{Op: runquery.OpIn, Members: members}, nil
	case c.Not != nil:
		kid, err := clauseToNode(c.Not, n, rank)
		if err != nil {
			return nil, err
		}
		return &runquery.Node{Op: runquery.OpNot, Kids: []*runquery.Node{kid}}, nil
	default:
		op := runquery.OpAnd
		kids := c.And
		if c.Or != nil {
			op = runquery.OpOr
			kids = c.Or
		}
		nd := &runquery.Node{Op: op, Kids: make([]*runquery.Node, 0, len(kids))}
		for _, k := range kids {
			kid, err := clauseToNode(k, n, rank)
			if err != nil {
				return nil, err
			}
			nd.Kids = append(nd.Kids, kid)
		}
		return nd, nil
	}
}

// finishComposite maps rank-space matches back to vertex IDs, applies
// the deterministic public ordering — reachable scores ascending, then
// vertex ID; unreachable-scored matches last — and trims to exactly k.
func finishComposite(perm []int32, rs *runquery.ResultSet, k int) *CompositeResult {
	out := &CompositeResult{Total: rs.Total, Exact: rs.Exact, Scanned: rs.Scanned}
	if len(rs.Matches) == 0 {
		return out
	}
	ms := make([]CompositeMatch, len(rs.Matches))
	for i, m := range rs.Matches {
		ms[i] = CompositeMatch{Vertex: perm[m.Rank], Score: m.Score, Terms: m.Terms}
	}
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if (a.Score < 0) != (b.Score < 0) {
			return b.Score < 0
		}
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		return a.Vertex < b.Vertex
	})
	if k > 0 && len(ms) > k {
		ms = ms[:k]
	}
	out.Matches = ms
	return out
}

// Composite answers a multi-constraint query; see CompositeRequest.
// The store itself is the rank-space engine's backend: constraints run
// over its inverted labels and non-driving constraints probe through
// its pinned-source prober, with bit-parallel §5.3 corrections on
// undirected indexes and forward distances d(s → v) on directed ones.
// Results follow the deterministic (score, vertex ID) ordering shared
// by every variant and container form. Safe for concurrent use.
func (st *store[D]) Composite(req *CompositeRequest) (*CompositeResult, error) {
	q, err := req.toRankQuery(st.n, st.rank)
	if err != nil {
		return nil, err
	}
	rs, err := runquery.Execute(st, q)
	if err != nil {
		return nil, err
	}
	return finishComposite(st.perm, rs, req.K), nil
}
