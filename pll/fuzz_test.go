package pll_test

// Native fuzz target for the container parser behind pll.Load. The
// contract under test: any input either loads successfully or fails
// with an error wrapping ErrBadIndexFile — never a panic, never an
// unbounded allocation (see allocChunk in internal/core/flat.go), and
// a loaded index answers Distance, Stats, Path and, when it can
// search, KNN and Range without hanging. The seed corpus holds a
// round-tripped index of every variant, with and without the persisted
// search sections, so mutations explore each branch of the section
// parser.
//
// CI runs a short coverage-guided session (-fuzz=FuzzLoad -fuzztime=60s,
// see .github/workflows/ci.yml); plain `go test` replays the corpus.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"pll/pll"
)

// fuzzCorpus serializes one index per variant, with and without the
// persisted search sections.
func fuzzCorpus(f *testing.F) [][]byte {
	f.Helper()
	edges := []pll.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 1, V: 4}, {U: 4, V: 5}}
	g, err := pll.NewGraph(7, edges) // vertex 6 isolated: exercises empty labels
	if err != nil {
		f.Fatal(err)
	}
	dg, err := pll.NewDigraph(6, edges)
	if err != nil {
		f.Fatal(err)
	}
	wedges := make([]pll.WeightedEdge, len(edges))
	for i, e := range edges {
		wedges[i] = pll.WeightedEdge{U: e.U, V: e.V, Weight: uint32(i%3 + 1)}
	}
	wg, err := pll.NewWeightedGraph(6, wedges)
	if err != nil {
		f.Fatal(err)
	}

	must := func(o pll.Oracle, err error) pll.Oracle {
		if err != nil {
			f.Fatal(err)
		}
		return o
	}
	var out [][]byte
	add := func(o pll.Oracle, opts ...pll.FlatOption) {
		var buf bytes.Buffer
		if _, err := pll.WriteFlat(&buf, o, opts...); err != nil {
			f.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	add(must(pll.BuildIndex(g, pll.WithBitParallel(2))))
	add(must(pll.BuildIndex(g, pll.WithBitParallel(0))))
	add(must(pll.BuildIndex(g, pll.WithPaths())))
	add(must(pll.BuildDirected(dg)))
	add(must(pll.BuildWeighted(wg)))
	add(must(pll.BuildDynamic(g)))
	// Containers carrying the persisted hub-inverted search sections:
	// the secInv* parsing and validation paths must reject truncated or
	// misaligned mutants with ErrBadIndexFile.
	add(must(pll.BuildIndex(g, pll.WithBitParallel(2))), pll.FlatSearch())
	add(must(pll.BuildDirected(dg)), pll.FlatSearch())
	add(must(pll.BuildWeighted(wg)), pll.FlatSearch())
	return out
}

// seedMalformations derive extra seeds from each corpus container
// (offsets per internal/core/container.go and flat.go). Each one drives
// a different rejection branch of the parser, so coverage-guided
// mutation starts next to all of them.
var seedMalformations = []func(b []byte) []byte{
	func(b []byte) []byte { return b[:17] },       // truncated container header
	func(b []byte) []byte { return b[:len(b)/2] }, // truncated sections
	func(b []byte) []byte { return b[:len(b)-1] }, // one byte short
	func(b []byte) []byte { // section table, no sections
		return b[:32+24*binary.LittleEndian.Uint32(b[24:28])]
	},
	func(b []byte) []byte { b[9] ^= 0xff; return b },        // unknown container version
	func(b []byte) []byte { b[8] = 1; return b },            // retired version-1 header
	func(b []byte) []byte { copy(b, "PLLIDX01"); return b }, // bare version-1 magic
	func(b []byte) []byte { b[10] ^= 0x03; return b },       // wrong variant tag
	func(b []byte) []byte { b[11] |= 0x01; return b },       // reserved flag bit 0
	func(b []byte) []byte { b[16] ^= 0x01; return b },       // vertex count
	func(b []byte) []byte { b[24] ^= 0xff; return b },       // section count
	func(b []byte) []byte { b[40] ^= 0x01; return b },       // first section offset, misaligned
	func(b []byte) []byte { b[48] ^= 0xff; return b },       // first section element count
}

func FuzzLoad(f *testing.F) {
	for _, b := range fuzzCorpus(f) {
		f.Add(b)
		for _, malform := range seedMalformations {
			f.Add(malform(append([]byte(nil), b...)))
		}
	}
	f.Add([]byte{})
	f.Add([]byte("PLLBOX\x00\x00"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := pll.Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, pll.ErrBadIndexFile) {
				t.Fatalf("Load error does not wrap ErrBadIndexFile: %v", err)
			}
			return
		}
		if o == nil {
			t.Fatal("Load returned nil oracle without error")
		}
		// A successful load must yield a structurally usable oracle:
		// stats and a couple of queries must not panic. (Bound n so a
		// fuzzer-grown giant header cannot make the check itself slow.)
		n := o.NumVertices()
		if n < 0 {
			t.Fatalf("negative vertex count %d", n)
		}
		if n > 0 && n <= 1<<12 {
			st := o.Stats()
			_ = o.Distance(0, int32(n-1))
			if st.HasParentPointers {
				// Parent pointers pass range checks only; Path must
				// still terminate (an error is fine) on any of them.
				_, _ = o.Path(0, int32(n-1))
			}
			if sr, ok := o.(pll.Searcher); ok {
				// The search engines read the persisted inverted
				// sections and bit-parallel masks, and derive postings
				// from them: wrong answers are acceptable, panics not.
				_, _ = sr.KNN(0, 3)
				_, _ = sr.Range(int32(n-1), 2)
			}
			var buf bytes.Buffer
			if _, err := o.WriteTo(&buf); err != nil {
				// Round-tripping a loaded index may only fail for
				// unserializable features, never crash; directed and
				// weighted paths cannot be loaded, so no error is
				// acceptable here.
				t.Fatalf("re-serializing a loaded index failed: %v", err)
			}
		}
	})
}
