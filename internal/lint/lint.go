// Package lint is the project's static-analysis suite: six analyzers
// that mechanically enforce the safety invariants the index code is
// built on, plus the minimal driver machinery to run them.
//
// The analyzer surface (Analyzer, Pass, Diagnostic, SuggestedFix)
// deliberately mirrors golang.org/x/tools/go/analysis so each checker
// reads like a standard vet pass and can be ported to a real
// multichecker verbatim once the x/tools dependency is available; this
// build vendors none, so the package carries its own loader (load.go)
// and golden-file test harness (analysistest.go) on the standard
// library alone.
//
// The enforced invariants, one analyzer each:
//
//   - untrustedalloc: allocations sized by decoded container/header
//     fields must be capped (min(x, allocChunk)-style) or grown behind
//     actual reads — a hostile 16-byte header must never force an OOM.
//   - mmapwrite: slices obtained from flat-section accessors alias
//     shared read-only mapped pages and must never be written.
//   - distsentinel: the int64 distance contract (Unreachable == -1)
//     forbids narrowing conversions and unguarded </min ordering.
//   - capassert: capability interfaces (pll.Batcher, pll.Searcher,
//     pll.Closer) are probed with the two-result form, and Searcher
//     errors (ErrNoSearch, ErrStaleSet) are never discarded.
//   - handlerlimits: every POST handler wires http.MaxBytesReader (via
//     wire.Limits.DecodeBody) before touching a request body, and caps
//     a decoded fan-out against MaxBatch.
//   - profilescope: request-scoped trace profiles (trace.FromContext,
//     trace.ProfileFromContext) are never stored past the handler that
//     owns them.
//
// False positives are suppressed in source with
//
//	//pllvet:ignore <analyzer> <reason>
//
// on (or immediately above) the offending line, or in a function's doc
// comment to cover its whole body. The reason is mandatory; bare
// ignores are themselves reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static-analysis pass. The shape matches
// golang.org/x/tools/go/analysis.Analyzer (minus Requires/Facts, which
// the suite does not need).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags and
	// //pllvet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by `pllvet help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for diagnostics.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Source holds every package the loader type-checked from source
	// (module packages; fixture packages in tests), this one included,
	// so an analyzer can follow a call across the package boundary and
	// read the callee's body with its own package's TypesInfo. The
	// standard library, whose importer keeps no syntax, is absent.
	Source map[*types.Package]*Package

	diags    []Diagnostic
	analyzer *Analyzer
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a fully-formed diagnostic (with optional fixes).
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.analyzer.Name
	p.diags = append(p.diags, d)
}

// A Diagnostic is one finding: a position, a message, and optional
// mechanical fixes.
type Diagnostic struct {
	Analyzer       string
	Pos            token.Pos
	Message        string
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one self-contained rewrite addressing a
// diagnostic, applied by `pllvet -fix`.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces [Pos, End) with NewText. End == token.NoPos
// means a pure insertion at Pos.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics (ignore directives already applied), sorted by position.
// Malformed or unused //pllvet:ignore directives are reported through
// the special "pllvet" pseudo-analyzer so a stale suppression cannot
// linger silently.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		idx := newDirectiveIndex(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Source:    pkg.source,
				analyzer:  a,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.diags {
				if idx.suppressed(a.Name, d.Pos) {
					continue
				}
				out = append(out, d)
			}
		}
		out = append(out, idx.problems()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}
