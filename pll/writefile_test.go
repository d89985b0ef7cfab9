package pll_test

// Atomic, durable WriteFlatFile: a failed or interrupted write must never
// leave path torn or replace it with a partial container — the reload
// path (pllserved SIGHUP) depends on it.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pll/pll"
)

func TestWriteFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.pllbox")
	cases := buildFlatCases(t)

	if err := pll.WriteFlatFile(path, cases[0].oracle); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different variant; the file must read back as
	// the new index and the directory must hold no temp litter.
	if err := pll.WriteFlatFile(path, cases[3].oracle); err != nil {
		t.Fatal(err)
	}
	o, err := pll.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := o.Stats().Variant; v != pll.VariantDirected {
		t.Fatalf("replaced file holds the %s variant, want directed", v)
	}
	assertNoTempFiles(t, dir)
}

func TestWriteFileFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.pllbox")
	cases := buildFlatCases(t)
	if err := pll.WriteFlatFile(path, cases[0].oracle); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A weighted index built WithPaths cannot serialize: WriteFlatFile must
	// fail without touching the existing container or leaving a temp.
	wg, err := pll.NewWeightedGraph(3, []pll.WeightedEdge{{U: 0, V: 1, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	unserializable, err := pll.BuildWeighted(wg, pll.WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	if err := pll.WriteFlatFile(path, unserializable); err == nil {
		t.Fatal("WriteFlatFile of an unserializable index succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed WriteFlatFile modified the existing container")
	}
	assertNoTempFiles(t, dir)

	if err := pll.WriteFlatFile(filepath.Join(dir, "no/such/dir/ix.pllbox"), cases[0].oracle); err == nil {
		t.Fatal("WriteFlatFile into a missing directory succeeded")
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
