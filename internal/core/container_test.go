package core

// Container round trips and rejections: every variant's WriteTo must
// heap-load back through LoadAny / LoadAnyFile answering identically,
// and malformed input must fail with ErrBadIndexFile, never a panic.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pll/internal/gen"
)

// loadAs heap-loads container bytes and asserts the oracle type.
func loadAs[T any](t *testing.T, data []byte) T {
	t.Helper()
	o, err := LoadAny(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := o.(T)
	if !ok {
		t.Fatalf("loaded %T", o)
	}
	return ix
}

// loadFileAs reads a container file and asserts the oracle type.
func loadFileAs[T any](t *testing.T, path string) T {
	t.Helper()
	o, err := LoadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, ok := o.(T)
	if !ok {
		t.Fatalf("loaded %T", o)
	}
	return ix
}

// writeContainerFile writes wt's container into a fresh temp directory.
func writeContainerFile(t *testing.T, name string, wt io.WriterTo) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, containerBytes(t, wt), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mustReject asserts that LoadAny refuses data with ErrBadIndexFile.
func mustReject(t *testing.T, what string, data []byte) {
	t.Helper()
	if _, err := LoadAny(bytes.NewReader(data)); !errors.Is(err, ErrBadIndexFile) {
		t.Fatalf("%s: err = %v, want ErrBadIndexFile", what, err)
	}
}

// sectionOffset returns the file offset of flat section id.
func sectionOffset(t *testing.T, data []byte, id uint32) int {
	t.Helper()
	nsec := binary.LittleEndian.Uint32(data[24:28])
	for i := 0; i < int(nsec); i++ {
		e := data[32+24*i:]
		if binary.LittleEndian.Uint32(e[0:4]) == id {
			return int(binary.LittleEndian.Uint64(e[8:16]))
		}
	}
	t.Fatalf("no section %d", id)
	return 0
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 7)
	ix := buildOrFail(t, g, Options{NumBitParallel: 4, Seed: 2})
	loaded := loadAs[*Index](t, containerBytes(t, ix))
	if loaded.NumVertices() != 150 || loaded.NumBitParallelRoots() != 4 {
		t.Fatalf("loaded header wrong: n=%d bp=%d", loaded.NumVertices(), loaded.NumBitParallelRoots())
	}
	for _, p := range randPairs(150, 400, 5) {
		if ix.Query(p[0], p[1]) != loaded.Query(p[0], p[1]) {
			t.Fatalf("query mismatch after round trip at (%d,%d)", p[0], p[1])
		}
	}
	if loaded.ComputeStats() != ix.ComputeStats() {
		t.Fatal("stats changed through round trip")
	}
}

func TestSaveLoadWithParents(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 9)
	ix := buildOrFail(t, g, Options{StorePaths: true, Seed: 1})
	loaded := loadAs[*Index](t, containerBytes(t, ix))
	if !loaded.HasPaths() {
		t.Fatal("parent pointers lost in round trip")
	}
	for _, p := range randPairs(80, 60, 3) {
		want, _, err1 := ix.Path(p[0], p[1])
		got, _, err2 := loaded.Path(p[0], p[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("path errors: %v %v", err1, err2)
		}
		if len(want) != len(got) {
			t.Fatalf("path length changed: %d vs %d", len(want), len(got))
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := gen.Path(20)
	ix := buildOrFail(t, g, Options{})
	loaded := loadFileAs[*Index](t, writeContainerFile(t, "ix.pll", ix))
	if loaded.Query(0, 19) != 19 {
		t.Fatal("loaded index answers wrong")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadAnyFile(filepath.Join(t.TempDir(), "missing.pll")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	mustReject(t, "bad magic", []byte("NOTANIDX0000000000000000000000000000"))
}

func TestLoadRejectsEmpty(t *testing.T) {
	mustReject(t, "empty input", nil)
}

func TestLoadRejectsTruncationEverywhere(t *testing.T) {
	// Chop a valid container at many byte offsets; every prefix must be
	// rejected with ErrBadIndexFile (and must not panic).
	ix := buildOrFail(t, gen.BarabasiAlbert(40, 2, 3), Options{NumBitParallel: 2})
	full := containerBytes(t, ix)
	for cut := 0; cut < len(full)-1; cut += 97 {
		mustReject(t, "truncation", full[:cut])
	}
}

func TestLoadRejectsCorruptPermutation(t *testing.T) {
	g := gen.Path(10)
	ix := buildOrFail(t, g, Options{})
	data := containerBytes(t, ix)
	off := sectionOffset(t, data, secPerm)
	copy(data[off:], []byte{0xff, 0xff, 0xff, 0x7f}) // out of range
	mustReject(t, "corrupt permutation", data)
}

func TestLoadRejectsUnknownFlags(t *testing.T) {
	g := gen.Path(5)
	ix := buildOrFail(t, g, Options{})
	for _, bit := range []uint8{0x01, 0x80} { // 0x01: reserved, once "compressed"
		data := containerBytes(t, ix)
		data[11] |= bit
		mustReject(t, "flag bit", data)
	}
}

func TestLoadRejectsImplausibleSizes(t *testing.T) {
	// Header fields claiming huge sizes must be rejected before any
	// allocation they would size is attempted.
	ix := buildOrFail(t, gen.BarabasiAlbert(30, 2, 3), Options{NumBitParallel: 2})
	data := containerBytes(t, ix)
	binary.LittleEndian.PutUint64(data[16:24], 1<<40) // n
	mustReject(t, "n = 2^40", data)

	data = containerBytes(t, ix)
	binary.LittleEndian.PutUint32(data[24:28], 1<<20) // section count
	mustReject(t, "2^20 sections", data)

	data = containerBytes(t, ix)
	binary.LittleEndian.PutUint64(data[32+16:32+24], 1<<40) // first section's element count
	mustReject(t, "2^40-entry section", data)

	data = containerBytes(t, ix)
	binary.LittleEndian.PutUint32(data[12:16], 1<<17) // bit-parallel width
	mustReject(t, "2^17 bit-parallel roots", data)
}

func TestWeightedSaveLoadRoundTrip(t *testing.T) {
	wg := randomWeightedGraph(3, 80, 15)
	ix, err := BuildWeighted(wg, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadAs[*WeightedIndex](t, containerBytes(t, ix))
	n := wg.NumVertices()
	for _, p := range randPairs(n, 300, 9) {
		if ix.Query(p[0], p[1]) != loaded.Query(p[0], p[1]) {
			t.Fatalf("weighted round trip mismatch at (%d,%d)", p[0], p[1])
		}
	}
}

func TestWeightedSaveLoadFile(t *testing.T) {
	wg := randomWeightedGraph(5, 40, 9)
	ix, err := BuildWeighted(wg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadFileAs[*WeightedIndex](t, writeContainerFile(t, "w.pll", ix))
	if loaded.NumVertices() != wg.NumVertices() {
		t.Fatal("vertex count lost")
	}
}

// rejectsCorruption checks a bad magic byte and a truncation every
// step bytes.
func rejectsCorruption(t *testing.T, full []byte, step int) {
	t.Helper()
	bad := append([]byte{}, full...)
	bad[3] = 'X'
	mustReject(t, "bad magic", bad)
	for cut := 0; cut < len(full)-1; cut += step {
		mustReject(t, "truncation", full[:cut])
	}
}

func TestWeightedLoadRejectsCorruption(t *testing.T) {
	wg := randomWeightedGraph(7, 40, 9)
	ix, err := BuildWeighted(wg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rejectsCorruption(t, containerBytes(t, ix), 71)
}

func TestDirectedSaveLoadRoundTrip(t *testing.T) {
	g := gen.RandomDigraph(70, 300, 3)
	ix, err := BuildDirected(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadAs[*DirectedIndex](t, containerBytes(t, ix))
	for _, p := range randPairs(70, 300, 11) {
		if ix.Query(p[0], p[1]) != loaded.Query(p[0], p[1]) {
			t.Fatalf("directed round trip mismatch at (%d,%d)", p[0], p[1])
		}
	}
}

func TestDirectedSaveLoadFile(t *testing.T) {
	g := gen.RandomDigraph(30, 100, 5)
	ix, err := BuildDirected(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadFileAs[*DirectedIndex](t, writeContainerFile(t, "d.pll", ix))
	if loaded.NumVertices() != 30 {
		t.Fatal("vertex count lost")
	}
}

func TestDirectedLoadRejectsCorruption(t *testing.T) {
	g := gen.RandomDigraph(40, 150, 7)
	ix, err := BuildDirected(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rejectsCorruption(t, containerBytes(t, ix), 83)
}

func TestFormatsRejectCrossLoading(t *testing.T) {
	// A container whose variant tag names another variant than its
	// sections hold must be rejected, never misparsed.
	wix, err := BuildWeighted(randomWeightedGraph(9, 30, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dix, err := BuildDirected(gen.RandomDigraph(30, 100, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	uix := buildOrFail(t, gen.Path(30), Options{})
	for _, src := range []io.WriterTo{wix, dix, uix} {
		orig := containerBytes(t, src)
		for _, tag := range []Variant{VariantUndirected, VariantDirected, VariantWeighted} {
			if Variant(orig[10]) == tag {
				continue
			}
			data := append([]byte{}, orig...)
			data[10] = uint8(tag)
			mustReject(t, Variant(orig[10]).String()+" container tagged "+tag.String(), data)
		}
	}
}
