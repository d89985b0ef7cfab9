package pll_test

// Flat container coverage: byte/answer equivalence across all variants
// × paths × bit-parallel, zero-copy Open on files, rejection of
// malformed and retired-format input, and concurrent FlatIndex
// querying (run under -race in CI).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pll/pll"
)

// flatCase builds one oracle flavor for the equivalence matrix.
type flatCase struct {
	name   string
	oracle pll.Oracle
}

// buildFlatCases constructs every serializable variant over one small
// graph family (plus an isolated vertex to exercise empty labels).
func buildFlatCases(t testing.TB) []flatCase {
	t.Helper()
	edges := []pll.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
		{U: 1, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 2, V: 6},
	}
	g, err := pll.NewGraph(8, edges) // vertex 7 isolated
	if err != nil {
		t.Fatal(err)
	}
	dg, err := pll.NewDigraph(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	wedges := make([]pll.WeightedEdge, len(edges))
	for i, e := range edges {
		wedges[i] = pll.WeightedEdge{U: e.U, V: e.V, Weight: uint32(i%4 + 1)}
	}
	wg, err := pll.NewWeightedGraph(8, wedges)
	if err != nil {
		t.Fatal(err)
	}

	must := func(o pll.Oracle, err error) pll.Oracle {
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	return []flatCase{
		{"undirected", must(pll.BuildIndex(g, pll.WithBitParallel(0)))},
		{"undirected-bp4", must(pll.BuildIndex(g, pll.WithBitParallel(4)))},
		{"undirected-paths", must(pll.BuildIndex(g, pll.WithPaths()))},
		{"directed", must(pll.BuildDirected(dg))},
		{"weighted", must(pll.BuildWeighted(wg))},
		{"dynamic", must(pll.BuildDynamic(g))},
	}
}

// sameAnswers compares two oracles exhaustively: every pair's distance
// and, when both sides support it, the path endpoints and length.
func sameAnswers(t *testing.T, name string, want, got pll.Oracle) {
	t.Helper()
	if want.NumVertices() != got.NumVertices() {
		t.Fatalf("%s: NumVertices %d vs %d", name, want.NumVertices(), got.NumVertices())
	}
	n := int32(want.NumVertices())
	for s := int32(0); s < n; s++ {
		for v := int32(0); v < n; v++ {
			dw, dg := want.Distance(s, v), got.Distance(s, v)
			if dw != dg {
				t.Fatalf("%s: d(%d,%d) = %d, want %d", name, s, v, dg, dw)
			}
			pw, errW := want.Path(s, v)
			pg, errG := got.Path(s, v)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("%s: path(%d,%d) errors diverge: %v vs %v", name, s, v, errW, errG)
			}
			if errW == nil && !equalPath(pw, pg) {
				t.Fatalf("%s: path(%d,%d) = %v, want %v", name, s, v, pg, pw)
			}
		}
	}
	// A live DynamicIndex estimates its footprint over growable
	// per-vertex slices; what serializes is the frozen snapshot, so
	// that is the stats baseline.
	if di, ok := want.(*pll.DynamicIndex); ok {
		want = di.Freeze()
	}
	sw, sg := want.Stats(), got.Stats()
	if sw != sg {
		t.Fatalf("%s: stats diverge:\n built: %+v\nloaded: %+v", name, sw, sg)
	}
}

func equalPath(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFlatRoundTripAllVariants proves the format equivalence: for
// every variant, WriteTo and WriteFlat emit the same bytes, those bytes
// heap-load (Load) into an oracle whose answers match the original
// exhaustively, and the loaded oracle re-serializes byte-identically —
// so save -> load -> save is lossless.
func TestFlatRoundTripAllVariants(t *testing.T) {
	for _, tc := range buildFlatCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var written bytes.Buffer
			if _, err := tc.oracle.WriteTo(&written); err != nil {
				t.Fatal(err)
			}
			var flat bytes.Buffer
			if _, err := pll.WriteFlat(&flat, tc.oracle); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(written.Bytes(), flat.Bytes()) {
				t.Fatalf("WriteTo and WriteFlat differ (%d vs %d bytes)", written.Len(), flat.Len())
			}
			loaded, err := pll.Load(bytes.NewReader(flat.Bytes()))
			if err != nil {
				t.Fatalf("Load(flat): %v", err)
			}
			sameAnswers(t, tc.name, tc.oracle, loaded)
			var back bytes.Buffer
			if _, err := loaded.WriteTo(&back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(flat.Bytes(), back.Bytes()) {
				t.Fatalf("save -> load -> save is not byte-identical (%d vs %d bytes)",
					flat.Len(), back.Len())
			}
		})
	}
}

// TestOpenServesFlatFiles proves the mmap path: Open answers match the
// built oracle on every variant, the variant tag is preserved, WriteTo
// re-serializes byte-identically, and Close is idempotent.
func TestOpenServesFlatFiles(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range buildFlatCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".pllbox")
			if err := pll.WriteFlatFile(path, tc.oracle); err != nil {
				t.Fatal(err)
			}
			fi, err := pll.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fi.Close()
			sameAnswers(t, tc.name, tc.oracle, fi)

			wantVariant := tc.oracle.Stats().Variant
			if fi.Variant() != wantVariant {
				t.Fatalf("variant %s, want %s", fi.Variant(), wantVariant)
			}
			var orig, back bytes.Buffer
			if _, err := tc.oracle.WriteTo(&orig); err != nil {
				t.Fatal(err)
			}
			if _, err := fi.WriteTo(&back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(orig.Bytes(), back.Bytes()) {
				t.Fatal("FlatIndex.WriteTo is not byte-identical to the source index's")
			}
			if err := fi.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := fi.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestOpenBatchesZeroCopy covers the Batcher capability on the mapped
// oracle and the zero-copy property itself.
func TestOpenBatchesZeroCopy(t *testing.T) {
	tc := buildFlatCases(t)[1] // undirected-bp4
	path := filepath.Join(t.TempDir(), "bp.pllbox")
	if err := pll.WriteFlatFile(path, tc.oracle); err != nil {
		t.Fatal(err)
	}
	fi, err := pll.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fi.Close()
	if !fi.ZeroCopy() {
		t.Skip("host cannot alias file bytes (big-endian); zero-copy not applicable")
	}
	n := int32(fi.NumVertices())
	targets := make([]int32, n)
	for i := range targets {
		targets[i] = int32(i)
	}
	for s := int32(0); s < n; s++ {
		got := fi.DistanceFrom(s, targets, nil)
		for i, tv := range targets {
			if want := tc.oracle.Distance(s, tv); got[i] != want {
				t.Fatalf("DistanceFrom(%d)[%d] = %d, want %d", s, tv, got[i], want)
			}
		}
	}
}

// TestOpenRejectsNonFlat: files of the retired version-1 format (a
// version-1 container header, a bare "PLLIDX*" payload) are malformed
// to this build; Open says so with ErrBadIndexFile.
func TestOpenRejectsNonFlat(t *testing.T) {
	dir := t.TempDir()
	tc := buildFlatCases(t)[0]
	var buf bytes.Buffer
	if _, err := tc.oracle.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), buf.Bytes()...)
	v1[8] = 1 // container version 1
	legacy := append([]byte("PLLIDX01"), buf.Bytes()[16:]...)
	for name, data := range map[string][]byte{"v1.pllbox": v1, "legacy.pll": legacy} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := pll.Open(path); !errors.Is(err, pll.ErrBadIndexFile) {
			t.Fatalf("Open(%s): got %v, want ErrBadIndexFile", name, err)
		}
	}

	if _, err := pll.Open(filepath.Join(dir, "missing.pllbox")); err == nil {
		t.Fatal("Open(missing) succeeded")
	}
}

// TestOpenAndLoadRejectMalformedFlat corrupts a valid flat container in
// targeted ways; both the mmap and the heap loader must fail with
// ErrBadIndexFile and never panic.
func TestOpenAndLoadRejectMalformedFlat(t *testing.T) {
	tc := buildFlatCases(t)[1] // bp variant: most sections
	var buf bytes.Buffer
	if _, err := pll.WriteFlat(&buf, tc.oracle); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	dir := t.TempDir()

	check := func(name string, mut []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if fi, err := pll.Open(path); err == nil {
			fi.Close()
			t.Fatalf("%s: Open accepted malformed input", name)
		} else if !errors.Is(err, pll.ErrBadIndexFile) {
			t.Fatalf("%s: Open error %v does not wrap ErrBadIndexFile", name, err)
		}
		if _, err := pll.Load(bytes.NewReader(mut)); !errors.Is(err, pll.ErrBadIndexFile) {
			t.Fatalf("%s: Load error does not wrap ErrBadIndexFile", name)
		}
	}

	cuts := []int{33, 48, len(valid) / 2, len(valid) - 1}
	for cut := 0; cut < len(valid)-1; cut += 97 {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		check(fmt.Sprintf("truncated-%d", cut), append([]byte(nil), valid[:cut]...))
	}
	flip := func(off int) []byte {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		return mut
	}
	check("bad-section-count", flip(24))
	check("bad-section-id", flip(32))
	check("bad-section-elem", flip(36))
	check("bad-section-off", flip(40))
	check("bad-section-count-field", flip(48))
	// Corrupt the first permutation entry (first section payload): the
	// payload starts 8-aligned after header, flat header and table.
	nsec := int(binary.LittleEndian.Uint32(valid[24:28]))
	permOff := (16 + 16 + 24*nsec + 7) &^ 7
	check("bad-perm", flip(permOff))
}

// TestFlatConcurrentQueries hammers one mapped FlatIndex from many
// goroutines — point queries, paths-free batches and Stats — so the
// race detector can certify the zero-copy read path (CI runs this test
// under -race explicitly).
func TestFlatConcurrentQueries(t *testing.T) {
	tc := buildFlatCases(t)[1] // undirected-bp4
	path := filepath.Join(t.TempDir(), "conc.pllbox")
	if err := pll.WriteFlatFile(path, tc.oracle); err != nil {
		t.Fatal(err)
	}
	fi, err := pll.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fi.Close()

	n := int32(fi.NumVertices())
	targets := make([]int32, n)
	for i := range targets {
		targets[i] = int32(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			var dst []int64
			for iter := 0; iter < 200; iter++ {
				s := (seed + int32(iter)) % n
				dst = fi.DistanceFrom(s, targets, dst)
				for i, tv := range targets {
					if got := fi.Distance(s, tv); got != dst[i] {
						t.Errorf("concurrent d(%d,%d): %d vs batch %d", s, tv, got, dst[i])
						return
					}
				}
				_ = fi.Stats()
			}
		}(int32(w))
	}
	wg.Wait()
}
