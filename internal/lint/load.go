package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// source holds every package its loader type-checked from source,
	// this one included, keyed by type (see Pass.Source).
	source map[*types.Package]*Package
}

// Load resolves patterns with `go list` from dir and type-checks every
// matched package: module-local imports are parsed and checked from
// source recursively, the standard library is delegated to the
// compiler's source importer, so the loader works offline with no
// dependencies beyond the go tool itself.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listings, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	ld := newLoader()
	for _, l := range listings {
		if !l.Standard {
			ld.listings[l.ImportPath] = l
		}
	}
	var out []*Package
	for _, l := range listings {
		if l.Standard || l.DepOnly || len(l.GoFiles) == 0 {
			continue
		}
		pkg, err := ld.load(l.ImportPath)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// listing is the subset of `go list -json` output the loader needs.
type listing struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// goList runs `go list -deps -json` so the module-local dependency
// closure of the patterns is known up front (stdlib entries are kept
// only to mark them as such).
func goList(dir string, patterns []string) ([]*listing, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,Standard,DepOnly,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var out []*listing
	dec := json.NewDecoder(&stdout)
	for {
		var l listing
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parsing go list output: %v", err)
		}
		out = append(out, &l)
	}
	return out, nil
}

// loader type-checks module packages from source, memoized, sharing
// one FileSet with the stdlib source importer.
type loader struct {
	fset     *token.FileSet
	listings map[string]*listing
	pkgs     map[string]*Package
	source   map[*types.Package]*Package
	loading  map[string]bool
	stdlib   types.Importer
}

func newLoader() *loader {
	// The source importer reads build.Default; cgo-tagged file lists
	// cannot be type-checked from source, so resolve the pure-Go view.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		fset:     fset,
		listings: map[string]*listing{},
		pkgs:     map[string]*Package{},
		source:   map[*types.Package]*Package{},
		loading:  map[string]bool{},
		stdlib:   importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer over the hybrid resolution.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := ld.listings[path]; ok {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.stdlib.Import(path)
}

// load parses and type-checks one module-local package (memoized).
func (ld *loader) load(path string) (*Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)
	l, ok := ld.listings[path]
	if !ok {
		return nil, fmt.Errorf("package %s not in the go list dependency closure", path)
	}
	files, err := parseDir(ld.fset, l.Dir, l.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := typeCheck(ld.fset, path, files, ld, ld.source)
	if err != nil {
		return nil, err
	}
	pkg.Dir = l.Dir
	ld.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the named files of one directory with comments.
func parseDir(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck runs the types checker over parsed files with a full Info
// and registers the package in its loader's source set.
func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, source map[*types.Package]*Package) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	pkg := &Package{
		PkgPath:   path,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
		source:    source,
	}
	source[tpkg] = pkg
	return pkg, nil
}
