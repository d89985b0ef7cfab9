package core

// Internals of the flat (version-2) container: section alignment, the
// zero-copy aliasing guarantee, and agreement between the mmap parser
// (structural validation) and the heap parser (full validation).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pll/internal/gen"
	"pll/internal/graph"
)

func buildFlatTestIndex(t testing.TB) *Index {
	t.Helper()
	g := gen.BarabasiAlbert(300, 3, 11)
	ix, err := Build(g, Options{Seed: 11, NumBitParallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestFlatSectionsAligned walks the written section table: every
// section must start 8-byte aligned, lie inside the file, and not
// overlap the table.
func TestFlatSectionsAligned(t *testing.T) {
	ix := buildFlatTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	nsec := binary.LittleEndian.Uint32(data[24:28])
	if nsec != 8 { // perm, rank, off, vertex, dist, bpDist, bpS1, bpS0
		t.Fatalf("bit-parallel index wrote %d sections, want 8", nsec)
	}
	tableEnd := uint64(32 + 24*nsec)
	for i := uint64(0); i < uint64(nsec); i++ {
		b := data[32+24*i:]
		off := binary.LittleEndian.Uint64(b[8:16])
		count := binary.LittleEndian.Uint64(b[16:24])
		elem := uint64(binary.LittleEndian.Uint32(b[4:8]))
		if off%8 != 0 {
			t.Fatalf("section %d starts at unaligned offset %d", i, off)
		}
		if off < tableEnd || off+count*elem > uint64(len(data)) {
			t.Fatalf("section %d [%d, %d) escapes the file of %d bytes",
				i, off, off+count*elem, len(data))
		}
	}
}

// TestOpenFlatAliasesMapping proves zero-copy on little-endian hosts:
// the opened index's arrays must point into the mapped image, not at
// heap copies.
func TestOpenFlatAliasesMapping(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("aliasing requires a little-endian host")
	}
	ix := buildFlatTestIndex(t)
	path := filepath.Join(t.TempDir(), "flat.pllbox")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteFlat(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if !fs.ZeroCopy() {
		t.Fatal("OpenFlat fell back to copying on a little-endian host")
	}
	got, ok := fs.Oracle().(*Index)
	if !ok {
		t.Fatalf("oracle is %T, want *Index", fs.Oracle())
	}
	if got.n != ix.n || got.numBP != ix.numBP {
		t.Fatalf("header mismatch: n=%d bp=%d, want n=%d bp=%d", got.n, got.numBP, ix.n, ix.numBP)
	}
	// Exhaustive answer equivalence against the built index.
	for s := int32(0); s < int32(ix.n); s += 7 {
		for v := int32(0); v < int32(ix.n); v++ {
			if got.Query(s, v) != ix.Query(s, v) {
				t.Fatalf("mapped Query(%d,%d) diverges", s, v)
			}
		}
	}
}

// TestFlatHeapAndMapAgree runs the same bytes through the reader-based
// full-validation loader and the aliasing parser; both must accept and
// answer identically.
func TestFlatHeapAndMapAgree(t *testing.T) {
	ix := buildFlatTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	heapLoaded, err := LoadAny(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hx := heapLoaded.(*Index)

	data := append([]byte(nil), buf.Bytes()...)
	fs, err := newFlatStore(data, int64(len(data)), func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	mx := fs.Oracle().(*Index)
	for s := int32(0); s < int32(ix.n); s += 13 {
		for v := int32(0); v < int32(ix.n); v++ {
			if hx.Query(s, v) != mx.Query(s, v) || hx.Query(s, v) != ix.Query(s, v) {
				t.Fatalf("heap/map/built answers diverge at (%d,%d)", s, v)
			}
		}
	}
}

// TestOpenFlatRejectsV1 ensures files of the retired version-1 format
// (a version-1 container header, or a bare "PLLIDX*" payload) fail on
// both load paths with ErrBadIndexFile and a message naming the
// conversion route.
func TestOpenFlatRejectsV1(t *testing.T) {
	ix := buildFlatTestIndex(t)
	dir := t.TempDir()
	v1 := containerBytes(t, ix)
	v1[8] = 1 // container version 1
	legacy := append([]byte("PLLIDX01"), v1[8:]...)
	for name, data := range map[string][]byte{"v1.pllbox": v1, "legacy.pll": legacy} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFlat(path); !errors.Is(err, ErrBadIndexFile) || !strings.Contains(err.Error(), "pll convert") {
			t.Fatalf("OpenFlat(%s): got %v, want ErrBadIndexFile naming pll convert", name, err)
		}
		if _, err := LoadAny(bytes.NewReader(data)); !errors.Is(err, ErrBadIndexFile) || !strings.Contains(err.Error(), "pll convert") {
			t.Fatalf("LoadAny(%s): got %v, want ErrBadIndexFile naming pll convert", name, err)
		}
	}
}

// TestFlatTinyGraphs opens and heap-loads containers of the smallest
// indexes (no vertices, one, two isolated ones), with and without
// parent pointers, so empty sections and one-entry labels parse.
func TestFlatTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		for _, paths := range []bool{false, true} {
			g, err := graph.NewGraph(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			ix := buildOrFail(t, g, Options{StorePaths: paths})
			path := writeContainerFile(t, "tiny.pllbox", ix)
			fs, err := OpenFlat(path)
			if err != nil {
				t.Fatalf("n=%d paths=%v: OpenFlat: %v", n, paths, err)
			}
			for _, got := range []*Index{fs.Oracle().(*Index), loadFileAs[*Index](t, path)} {
				if got.NumVertices() != n || got.HasPaths() != paths {
					t.Fatalf("n=%d paths=%v: loaded n=%d paths=%v", n, paths, got.NumVertices(), got.HasPaths())
				}
				if n >= 1 && got.Query(0, 0) != 0 {
					t.Fatalf("n=%d: self distance %d", n, got.Query(0, 0))
				}
				if n == 2 && got.Query(0, 1) != Unreachable {
					t.Fatalf("edgeless pair distance %d", got.Query(0, 1))
				}
				if n >= 1 && paths {
					if p, _, err := got.Path(0, 0); err != nil || len(p) != 1 {
						t.Fatalf("n=%d: self path %v, %v", n, p, err)
					}
				}
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
