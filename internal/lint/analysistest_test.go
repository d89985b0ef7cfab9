package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// Golden-file harness in the style of
// golang.org/x/tools/go/analysis/analysistest: fixture packages live
// under testdata/src/<path> (ignored by the go tool), and each line
// that should produce a finding carries a
//
//	// want `regex` [`regex` ...]
//
// comment; RunTest fails on any unmatched diagnostic or unsatisfied
// expectation. Fixture imports resolve against testdata/src first
// (so a fake pll package can stand in for the real one) and the
// standard library second.

// RunTest loads testdata/src/<path>, runs one analyzer through the
// directive-aware driver, and matches diagnostics against the
// fixture's want comments.
func RunTest(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	ld := newFixtureLoader("testdata/src")
	pkg, err := ld.load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags, err := Run([]*Analyzer{a}, []*Package{pkg})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, path, err)
	}
	checkWants(t, ld.fset, pkg.Files, diags)
}

// RunTestDiags is RunTest returning the surviving diagnostics so a
// test can additionally exercise their suggested fixes.
func RunTestDiags(t *testing.T, a *Analyzer, path string) (*token.FileSet, []Diagnostic) {
	t.Helper()
	ld := newFixtureLoader("testdata/src")
	pkg, err := ld.load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags, err := Run([]*Analyzer{a}, []*Package{pkg})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, path, err)
	}
	checkWants(t, ld.fset, pkg.Files, diags)
	return ld.fset, diags
}

// want is one pending expectation on a (file, line).
type want struct {
	re      *regexp.Regexp
	matched bool
}

var wantRx = regexp.MustCompile("`([^`]+)`")

// collectWants parses the fixtures' want comments, keyed by file:line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*want {
	t.Helper()
	out := map[string][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := indexWord(text, "want")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRx.FindAllStringSubmatch(text[i:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
					}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}

// indexWord finds "// want" style markers without tripping on
// substrings of ordinary prose.
func indexWord(text, word string) int {
	for i := 0; i+len(word) <= len(text); i++ {
		if text[i:i+len(word)] != word {
			continue
		}
		before := i == 0 || text[i-1] == ' ' || text[i-1] == '/' || text[i-1] == '\t'
		after := i+len(word) == len(text) || text[i+len(word)] == ' ' || text[i+len(word)] == '`'
		if before && after {
			return i
		}
	}
	return -1
}

// checkWants reconciles diagnostics against expectations.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", pos, d.Message, d.Analyzer)
		}
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.re)
			}
		}
	}
}

// fixtureLoader resolves imports under a testdata/src root, falling
// back to the standard library.
type fixtureLoader struct {
	fset    *token.FileSet
	root    string
	pkgs    map[string]*Package
	source  map[*types.Package]*Package
	loading map[string]bool
	stdlib  types.Importer
}

// Type-checking a fixture's standard-library imports from source
// (net/http above all) costs seconds, so every loader in the test
// binary shares one source importer and the FileSet it records
// positions in. The fixture packages stay per loader.
var (
	fixtureFset   = token.NewFileSet()
	stdlibImports = importer.ForCompiler(fixtureFset, "source", nil)
)

func newFixtureLoader(root string) *fixtureLoader {
	return &fixtureLoader{
		fset:    fixtureFset,
		root:    root,
		pkgs:    map[string]*Package{},
		source:  map[*types.Package]*Package{},
		loading: map[string]bool{},
		stdlib:  stdlibImports,
	}
}

func (ld *fixtureLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if st, err := os.Stat(filepath.Join(ld.root, path)); err == nil && st.IsDir() {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.stdlib.Import(path)
}

func (ld *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("fixture import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)
	dir := filepath.Join(ld.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture %s has no .go files", dir)
	}
	files, err := parseDir(ld.fset, dir, names)
	if err != nil {
		return nil, err
	}
	pkg, err := typeCheck(ld.fset, path, files, ld, ld.source)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	ld.pkgs[path] = pkg
	return pkg, nil
}
