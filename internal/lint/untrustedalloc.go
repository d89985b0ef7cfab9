package lint

import (
	"go/ast"
	"go/types"
)

// UntrustedAlloc flags allocations whose size flows from decoded
// container/header fields without the chunked/capped loader pattern.
//
// A malformed (or adversarial) index file can declare sizes in the
// gigabytes while holding a few hundred bytes; the loaders therefore
// either cap every speculative allocation (make(T, 0, min(x,
// allocChunk))) or grow slices behind actual reads (readBytesCapped
// in internal/core/flat.go). This analyzer enforces the
// pattern mechanically: it taints the results of binary decoding
// (binary.LittleEndian.UintNN, binary.ReadUvarint/ReadVarint) and
// every field read of structs marked `pllvet:untrusted` (the parsed
// header types), and reports any make() whose length or capacity is
// reached by that taint. min(x, bound) with an untainted bound
// sanitizes; allocations provably backed by already-read bytes are
// suppressed in source with //pllvet:ignore untrustedalloc <reason>.
var UntrustedAlloc = &Analyzer{
	Name: "untrustedalloc",
	Doc: "flag make() calls sized by decoded header fields without a " +
		"min(x, allocChunk)-style cap",
	Run: runUntrustedAlloc,
}

func runUntrustedAlloc(pass *Pass) error {
	marked := markedStructs(pass, markerUntrusted)
	cfg := taintConfig{
		binary: true,
		index:  true,
		source: nil, // set below, needs the pass closure
		tupleResults: func(call *ast.CallExpr) []bool {
			if fn := calleeFunc(pass.TypesInfo, call); fn != nil &&
				fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" &&
				(fn.Name() == "ReadUvarint" || fn.Name() == "ReadVarint") {
				return []bool{true, false}
			}
			return nil
		},
		call: func(t *tainter, call *ast.CallExpr) (bool, bool) {
			// min(tainted, bound) with any untainted arm is the
			// sanitizer: the result is bounded by trusted input.
			if isBuiltin(pass.TypesInfo, call, "min") {
				for _, a := range call.Args {
					if !t.tainted(a) {
						return false, true
					}
				}
				return true, true
			}
			// max() keeps the unbounded arm: stays tainted.
			if isBuiltin(pass.TypesInfo, call, "max") {
				for _, a := range call.Args {
					if t.tainted(a) {
						return true, true
					}
				}
				return false, true
			}
			return false, false
		},
	}
	cfg.source = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.TypesInfo, x)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
				return false
			}
			switch fn.Name() {
			case "Uint16", "Uint32", "Uint64":
				return true
			}
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return false
			}
			return marked[namedObj(sel.Recv())]
		}
		return false
	}
	eachFunc(pass.Files, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		t := newTainter(pass, body, cfg)
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isBuiltin(pass.TypesInfo, call, "make") {
				return true
			}
			for _, size := range call.Args[1:] {
				if t.tainted(size) {
					pass.Reportf(call.Pos(),
						"allocation sized by untrusted input %s: cap it with min(x, allocChunk) or grow it behind actual reads (readBytesCapped et al.)",
						types.ExprString(size))
					break
				}
			}
			return true
		})
	})
	return nil
}

// markedStructs collects the named struct types of this package whose
// type declarations carry the given marker directive.
func markedStructs(pass *Pass, marker string) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if !hasMarker(doc, marker) && !hasMarker(ts.Comment, marker) {
					continue
				}
				if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// namedObj unwraps pointers and returns the type-name object of a
// named (or aliased) type, nil otherwise.
func namedObj(t types.Type) types.Object {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return x.Obj()
		default:
			return nil
		}
	}
}
