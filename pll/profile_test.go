package pll_test

// Merge-entry counters pinned exactly: a profiled Distance records the
// entries of both labels plus both sides' bit-parallel rows, and a
// profiled DistanceFrom records the source label and every target
// label, each with its bit-parallel row counted once. The expected
// counts are read back from the oracle's own flat container (offsets
// and rank sections), independent of the engines under test.

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"pll/pll"
)

// Flat section IDs the test reads (internal/core/flat.go).
const (
	secRank     = 2  // int32 vertex -> rank
	secLabelOff = 3  // int64 label offsets (undirected, weighted)
	secOutOff   = 10 // int64 L_OUT offsets (directed)
	secInOff    = 13 // int64 L_IN offsets (directed)
)

// labelSizes reads per-vertex label sizes from o's flat container:
// out[v] and in[v] count the entries of v's source-side and target-side
// labels (one family except on directed indexes), bp is the
// bit-parallel width.
func labelSizes(t *testing.T, o pll.Oracle) (out, in []int64, bp int64) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	le := binary.LittleEndian
	bp = int64(le.Uint32(b[12:16]))
	n := int(le.Uint64(b[16:24]))
	sections := map[uint32][]byte{}
	for i := 0; i < int(le.Uint32(b[24:28])); i++ {
		e := b[32+24*i:]
		elem, off, count := uint64(le.Uint32(e[4:8])), le.Uint64(e[8:16]), le.Uint64(e[16:24])
		sections[le.Uint32(e[0:4])] = b[off : off+elem*count]
	}
	rank := sections[secRank]
	sizes := func(id uint32) []int64 {
		offs, ok := sections[id]
		if !ok {
			return nil
		}
		out := make([]int64, n)
		for v := range out {
			r := int(le.Uint32(rank[4*v:]))
			out[v] = int64(le.Uint64(offs[8*r+8:]) - le.Uint64(offs[8*r:]) - 1)
		}
		return out
	}
	if out = sizes(secLabelOff); out != nil { // one family
		return out, out, bp
	}
	return sizes(secOutOff), sizes(secInOff), bp
}

func TestProfiledMergeEntries(t *testing.T) {
	oracles := goldenOracles(t)
	bpIx, err := pll.BuildIndex(mustGraph(t), pll.WithBitParallel(2), pll.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	oracles["undirected-bp2"] = bpIx
	path := filepath.Join(t.TempDir(), "bp4.pll")
	if err := pll.WriteFlatFile(path, oracles["undirected-bp4"]); err != nil {
		t.Fatal(err)
	}
	fi, err := pll.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fi.Close()
	oracles["flat-bp4"] = fi

	for name, o := range oracles {
		po, ok := o.(pll.ProfiledOracle)
		if !ok {
			t.Fatalf("%s: %T is not a ProfiledOracle", name, o)
		}
		out, in, bp := labelSizes(t, o)
		n := int32(o.NumVertices())
		for s := int32(0); s < n; s++ {
			for u := int32(0); u < n; u++ {
				p := new(pll.QueryProfile)
				po.DistanceProfiled(s, u, p)
				want := out[s] + in[u] + 2*bp
				if snap := p.Snapshot(); snap.MergeCalls != 1 || snap.MergeEntries != want {
					t.Fatalf("%s: DistanceProfiled(%d,%d) recorded %d entries in %d calls, want %d in 1",
						name, s, u, snap.MergeEntries, snap.MergeCalls, want)
				}
			}
			targets := []int32{s, (s + 1) % n, (s + 7) % n, n - 1}
			p := new(pll.QueryProfile)
			po.DistanceFromProfiled(s, targets, nil, p)
			want := out[s] + bp
			for _, u := range targets {
				want += in[u] + bp
			}
			if snap := p.Snapshot(); snap.MergeCalls != 1 || snap.MergeEntries != want {
				t.Fatalf("%s: DistanceFromProfiled(%d, %v) recorded %d entries in %d calls, want %d in 1",
					name, s, targets, snap.MergeEntries, snap.MergeCalls, want)
			}
		}
	}
}

func mustGraph(t *testing.T) *pll.Graph {
	t.Helper()
	g, err := pll.NewGraph(20, goldenEdges())
	if err != nil {
		t.Fatal(err)
	}
	return g
}
