package pll_test

// Container bytes pinned across commits: one fixed small graph per
// variant is built and written with and without FlatSearch, and the
// SHA-256 of each container must equal the digest recorded here. The
// round-trip suites compare bytes only within one build, so this is the
// test that notices a change to the flat format (or to the labels a
// build produces) between commits. A deliberate format change updates
// the constants together with the change that explains it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pll/pll"
)

// goldenEdges is a fixed 20-vertex graph: a ring with chords, a pendant
// path and an isolated vertex (19), so labels of every length, a
// disconnected pair and a degree-1 chain all appear.
func goldenEdges() []pll.Edge {
	edges := make([]pll.Edge, 0, 40)
	for v := int32(0); v < 12; v++ { // ring 0..11
		edges = append(edges, pll.Edge{U: v, V: (v + 1) % 12})
	}
	for _, c := range [][2]int32{{0, 6}, {2, 9}, {3, 7}, {4, 10}, {1, 5}} {
		edges = append(edges, pll.Edge{U: c[0], V: c[1]})
	}
	for v := int32(12); v < 18; v++ { // pendant path 11-12-...-18
		edges = append(edges, pll.Edge{U: v - 1, V: v})
	}
	edges = append(edges, pll.Edge{U: 18, V: 13})
	return edges
}

// goldenGraphs builds goldenEdges as an undirected graph, a digraph
// and a weighted graph.
func goldenGraphs(t *testing.T) (*pll.Graph, *pll.Digraph, *pll.WeightedGraph) {
	t.Helper()
	const n = 20
	edges := goldenEdges()
	g, err := pll.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := pll.NewDigraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	wedges := make([]pll.WeightedEdge, len(edges))
	for i, e := range edges {
		wedges[i] = pll.WeightedEdge{U: e.U, V: e.V, Weight: uint32(i*7%5 + 1)}
	}
	wg, err := pll.NewWeightedGraph(n, wedges)
	if err != nil {
		t.Fatal(err)
	}
	return g, dg, wg
}

func goldenOracles(t *testing.T) map[string]pll.Oracle {
	t.Helper()
	g, dg, wg := goldenGraphs(t)
	must := func(o pll.Oracle, err error) pll.Oracle {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	dyn, err := pll.BuildDynamic(g, pll.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]pll.Oracle{
		"undirected-bp4":   must(pll.BuildIndex(g, pll.WithBitParallel(4), pll.WithSeed(3))),
		"undirected-paths": must(pll.BuildIndex(g, pll.WithPaths(), pll.WithSeed(3))),
		"directed":         must(pll.BuildDirected(dg, pll.WithSeed(3))),
		"weighted":         must(pll.BuildWeighted(wg, pll.WithSeed(3))),
		"dynamic-frozen":   dyn.Freeze(),
	}
}

// goldenDigests maps "<variant>" and "<variant>+search" to the SHA-256
// of the container pll.WriteFlat writes.
var goldenDigests = map[string]string{
	"undirected-bp4":          "04e2afba29a860fb142c6940455e0f8a4b59ff6778ed8f57364734efd8ba793f",
	"undirected-bp4+search":   "9d72e8b4652ffcd57e7f3f11258d00449eecd6a18d51bc242fc7f1fd026d87cd",
	"undirected-paths":        "b21dda84054458c8a98a882b3a115c30d59bbb2b6ae7157dae5b9ef005116c0c",
	"undirected-paths+search": "3db28c1d4fb8e4df9b778d317f937c3d5549090c82e357884fb3c4ca8d18a293",
	"directed":                "ea628637a899910e1a7d44953c5cc721d2f2cdf1f9a752f60c6d39748168ecb1",
	"directed+search":         "7b9e1ffe7e631e3203f44296c7df94ecbc38ccbd9f74b9d10bff29f0fecfc1e4",
	"weighted":                "137cc833b02293c4d243a7630c73ee25e14da6215755168fab6fa213a79306ea",
	"weighted+search":         "5bc17fdd3a892f219f0e46a7ae6754b0b4a48ea21bc141654361c9d8f20d7564",
	"dynamic-frozen":          "d5b9239b1ca67335d95bf64abd4b7f3b27e533174272716103235bf191c3f014",
	"dynamic-frozen+search":   "f758513a1b0c7ebb7e04f51d0d7da181d958985abb79c73f4ac5a18ceaa598ab",
}

func TestContainerBytesGolden(t *testing.T) {
	for name, o := range goldenOracles(t) {
		for _, search := range []bool{false, true} {
			key := name
			var opts []pll.FlatOption
			if search {
				key += "+search"
				opts = append(opts, pll.FlatSearch())
			}
			var buf bytes.Buffer
			if _, err := pll.WriteFlat(&buf, o, opts...); err != nil {
				t.Fatalf("%s: WriteFlat: %v", key, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := hex.EncodeToString(sum[:])
			if want := goldenDigests[key]; got != want {
				t.Errorf("%s: container digest %s, want %s (%d bytes)", key, got, want, buf.Len())
			}
		}
	}
}

// TestBuildIgnoresInapplicableOptions pins Build's option contract:
// options that do not apply to a variant are ignored, so directed and
// weighted builds WithBitParallel write the same container as builds
// without it, and BuildDynamic drops WithBitParallel and WithPaths.
func TestBuildIgnoresInapplicableOptions(t *testing.T) {
	g, dg, wg := goldenGraphs(t)
	container := func(o pll.Oracle, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := pll.WriteFlat(&buf, o); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dynamic := func(opts ...pll.Option) (pll.Oracle, error) {
		d, err := pll.BuildDynamic(g, opts...)
		if err != nil {
			return nil, err
		}
		return d.Freeze(), nil
	}
	for _, c := range []struct {
		name  string
		build func(...pll.Option) (pll.Oracle, error)
		extra []pll.Option
	}{
		{"directed", func(o ...pll.Option) (pll.Oracle, error) { return pll.Build(dg, o...) }, []pll.Option{pll.WithBitParallel(4)}},
		{"weighted", func(o ...pll.Option) (pll.Oracle, error) { return pll.Build(wg, o...) }, []pll.Option{pll.WithBitParallel(4)}},
		{"dynamic", dynamic, []pll.Option{pll.WithBitParallel(4), pll.WithPaths()}},
	} {
		want := container(c.build(pll.WithSeed(3)))
		got := container(c.build(append([]pll.Option{pll.WithSeed(3)}, c.extra...)...))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: container differs when inapplicable options are set (%d vs %d bytes)", c.name, len(got), len(want))
		}
	}
}
