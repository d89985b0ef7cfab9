package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// HandlerLimits checks that every POST handler is registered with its
// resource caps wired in.
//
// The serving surface is exposed to untrusted clients, so two limits
// are load-bearing: the request body must pass through
// http.MaxBytesReader before any decoder touches it (wire.Limits'
// DecodeBody is the blessed wrapper), and any client-controlled
// fan-out — a decoded slice, a count — must be bounded by a MaxBatch
// read (wire.Limits.CheckFanout, or an explicit comparison). The
// analyzer resolves each mux registration whose pattern carries the
// POST method, walks the handler's call closure, and reports
//
//	(a) closures that never reach http.MaxBytesReader, with a fix that
//	    inserts the cap at the top of the handler, and
//	(b) closures that decode a slice-bearing request type but never
//	    read a MaxBatch field.
//
// The closure crosses package boundaries into every package the loader
// type-checked from source, and each body is read with its own
// package's type information, so a handler that hands its request to
// a parsing package is judged by what that package does. No helper is
// trusted by name: a function counts as a decoder at its call sites
// because its body passes one of its parameters on as a decode target.
//
// Method-less registrations match POST along with every other method,
// so their handlers face the same rules once they actually decode a
// body; read-only method-less mounts (/metrics on an admin mux) pass.
// The /debug/ surface — pprof, /debug/traces — is exempt outright,
// whatever the method: operator-only debug handlers never need a
// suppression to mount.
var HandlerLimits = &Analyzer{
	Name: "handlerlimits",
	Doc: "flag POST handlers registered without http.MaxBytesReader " +
		"or MaxBatch fan-out caps",
	Run: runHandlerLimits,
}

func runHandlerLimits(pass *Pass) error {
	reach := newReachability(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pattern, handler := registration(pass, call)
			if handler == nil {
				return true
			}
			explicitPost, methodless := classifyPattern(strings.Trim(pattern, `"`))
			if !explicitPost && !methodless {
				return true
			}
			bodies := reach.bodies(handler)
			if len(bodies) == 0 {
				return true
			}
			// A method-less pattern matches POST too, so its handler is
			// held to the same caps — but only once it actually decodes a
			// body; read-only handlers mounted without a method (admin
			// /metrics, pprof) have nothing to cap.
			if methodless && !reach.decodesBody(bodies) {
				return true
			}
			if !reach.callsMaxBytesReader(bodies) {
				d := Diagnostic{
					Pos: call.Pos(),
					Message: fmt.Sprintf(
						"POST handler %s never wires http.MaxBytesReader; an unbounded body reaches the decoder",
						handlerName(handler)),
				}
				if fix, ok := maxBytesFix(pass, handler); ok {
					d.SuggestedFixes = []SuggestedFix{fix}
				}
				pass.Report(d)
			}
			if reach.decodesSlice(bodies) && !reach.capsFanout(bodies) {
				pass.Reportf(call.Pos(),
					"POST handler %s decodes a slice-bearing request but never caps its length against MaxBatch (CheckFanout)",
					handlerName(handler))
			}
			return true
		})
	}
	return nil
}

// classifyPattern sorts a mux pattern into the shapes the body-cap
// rules care about: an explicit "POST path" registration, or a
// method-less "path" one (which matches POST along with every other
// method). Explicit GET/HEAD/etc. registrations carry no decodable
// body. The read-only /debug/ surface — pprof, /debug/traces — is
// exempt outright, whatever the method: mounting a debug GET handler
// must not require a suppression comment to pass the POST body-cap
// rule.
func classifyPattern(pat string) (explicitPost, methodless bool) {
	method, path, hasMethod := strings.Cut(pat, " ")
	if !hasMethod {
		method, path = "", pat
	}
	if strings.HasPrefix(path, "/debug/") {
		return false, false
	}
	return method == "POST", !hasMethod
}

// registration recognizes mux.HandleFunc/Handle calls and returns the
// raw pattern literal plus the handler expression (http.HandlerFunc
// conversions unwrapped). handler == nil when call is not one.
func registration(pass *Pass, call *ast.CallExpr) (string, ast.Expr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "HandleFunc" && fn.Name() != "Handle") || len(call.Args) != 2 {
		return "", nil
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok {
		return "", nil
	}
	h := ast.Unparen(call.Args[1])
	if conv, ok := h.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[conv.Fun]; ok && tv.IsType() {
			h = ast.Unparen(conv.Args[0])
		}
	}
	return lit.Value, h
}

// handlerName renders the handler expression for diagnostics.
func handlerName(h ast.Expr) string {
	switch x := h.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	case *ast.FuncLit:
		return "(func literal)"
	}
	return types.ExprString(h)
}

// funcDecls maps one package's function objects to their declarations.
func funcDecls(files []*ast.File, info *types.Info) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// body is one reachable function body with the type information of the
// package that declares it.
type body struct {
	block *ast.BlockStmt
	info  *types.Info
}

// reachability computes, memoized, the call closure of a handler so
// transitive wrappers (DecodeBody → MaxBytesReader) count, in the
// handler's package or any other the loader checked from source.
type reachability struct {
	pass   *Pass
	decls  map[*types.Package]map[*types.Func]*ast.FuncDecl
	memo   map[*types.Func][]body
	params map[*types.Func]int // decodeParam results
}

func newReachability(pass *Pass) *reachability {
	return &reachability{
		pass:   pass,
		decls:  map[*types.Package]map[*types.Func]*ast.FuncDecl{},
		memo:   map[*types.Func][]body{},
		params: map[*types.Func]int{},
	}
}

// decl finds fn's declaration and the type information to read it
// with; nil when fn's package was not checked from source.
func (r *reachability) decl(fn *types.Func) (*ast.FuncDecl, *types.Info) {
	src, ok := r.pass.Source[fn.Pkg()]
	if !ok {
		return nil, nil
	}
	decls, ok := r.decls[src.Types]
	if !ok {
		decls = funcDecls(src.Files, src.TypesInfo)
		r.decls[src.Types] = decls
	}
	return decls[fn], src.TypesInfo
}

// bodies returns the body of every function reachable from the handler
// expression, the handler itself first.
func (r *reachability) bodies(h ast.Expr) []body {
	return r.exprBodies(ast.Unparen(h), map[*types.Func]bool{})
}

// exprBodies resolves one handler-valued expression. Besides the plain
// shapes (method value, function name, func literal), it sees through
// middleware wrappers: a registration like
//
//	mux.HandleFunc("POST /x", s.guarded("x", s.handleX))
//
// is a CallExpr whose result is the handler, so the closure is the
// union of the wrapper's own bodies and the bodies of every func-typed
// argument — the wrapped handler keeps being checked for its caps no
// matter how many instrumentation layers sit in front of it.
func (r *reachability) exprBodies(h ast.Expr, seen map[*types.Func]bool) []body {
	info := r.pass.TypesInfo
	switch x := h.(type) {
	case *ast.FuncLit:
		return r.closure(body{x.Body, info}, seen)
	case *ast.Ident:
		if fn, ok := info.Uses[x].(*types.Func); ok {
			return r.funcBodies(fn, seen)
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
			return r.funcBodies(fn, seen)
		}
	case *ast.CallExpr:
		var out []body
		if fn := calleeFunc(info, x); fn != nil {
			out = append(out, r.funcBodies(fn, seen)...)
		}
		for _, a := range x.Args {
			a = ast.Unparen(a)
			tv, ok := info.Types[a]
			if !ok {
				continue
			}
			if _, isFunc := tv.Type.Underlying().(*types.Signature); isFunc {
				out = append(out, r.exprBodies(a, seen)...)
			}
		}
		return out
	}
	return nil
}

func (r *reachability) funcBodies(fn *types.Func, seen map[*types.Func]bool) []body {
	fn = fn.Origin()
	if seen[fn] {
		return nil
	}
	seen[fn] = true
	if cached, ok := r.memo[fn]; ok {
		return cached
	}
	decl, info := r.decl(fn)
	if decl == nil {
		return nil
	}
	out := r.closure(body{decl.Body, info}, seen)
	r.memo[fn] = out
	return out
}

func (r *reachability) closure(b body, seen map[*types.Func]bool) []body {
	out := []body{b}
	ast.Inspect(b.block, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(b.info, call); fn != nil {
			out = append(out, r.funcBodies(fn, seen)...)
		}
		return true
	})
	return out
}

// callsMaxBytesReader reports whether any reachable body calls
// net/http.MaxBytesReader.
func (r *reachability) callsMaxBytesReader(bodies []body) bool {
	return anyCall(bodies, func(fn *types.Func, _ *ast.CallExpr, _ *types.Info) bool {
		return fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && fn.Name() == "MaxBytesReader"
	})
}

// decodesBody reports whether any reachable body decodes a request
// body at all (a Decode or Unmarshal call): the trigger that makes a
// method-less registration subject to the body-cap rule.
func (r *reachability) decodesBody(bodies []body) bool {
	return anyCall(bodies, func(fn *types.Func, _ *ast.CallExpr, _ *types.Info) bool {
		return fn.Name() == "Decode" || fn.Name() == "Unmarshal"
	})
}

// decodesSlice reports whether any reachable body decodes JSON into a
// value whose struct type carries a slice field (a client-controlled
// fan-out).
func (r *reachability) decodesSlice(bodies []body) bool {
	return anyCall(bodies, func(_ *types.Func, call *ast.CallExpr, info *types.Info) bool {
		target := r.decodeTarget(info, call)
		if target == nil {
			return false
		}
		tv, ok := info.Types[target]
		return ok && hasSliceField(tv.Type)
	})
}

// decodeTarget returns the expression a call decodes JSON into: the
// argument of a Decode or Unmarshal call, or the argument a function
// checked from source passes on as such a target (see decodeParam).
// Nil when the call decodes nothing.
func (r *reachability) decodeTarget(info *types.Info, call *ast.CallExpr) ast.Expr {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	switch {
	case fn.Name() == "Decode" && len(call.Args) == 1:
		return call.Args[0]
	case fn.Name() == "Unmarshal" && len(call.Args) == 2:
		return call.Args[1]
	}
	if i := r.decodeParam(fn); i >= 0 && i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

// decodeParam returns the index of the parameter fn's body decodes
// JSON into, directly or through another such function, or -1. A
// decode wrapper taking the target as an `any` parameter only shows
// the decoded type at its call sites; this is what puts it there.
func (r *reachability) decodeParam(fn *types.Func) int {
	fn = fn.Origin()
	if i, ok := r.params[fn]; ok {
		return i
	}
	r.params[fn] = -1 // a recursive decoder settles on its own answer
	decl, info := r.decl(fn)
	if decl == nil {
		return -1
	}
	params := fn.Type().(*types.Signature).Params()
	found := -1
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && found < 0 {
			if id, ok := ast.Unparen(r.decodeTarget(info, call)).(*ast.Ident); ok {
				for i := 0; i < params.Len(); i++ {
					if params.At(i) == info.Uses[id] {
						found = i
					}
				}
			}
		}
		return found < 0
	})
	r.params[fn] = found
	return found
}

// capsFanout reports whether any reachable body reads a MaxBatch field.
func (r *reachability) capsFanout(bodies []body) bool {
	for _, b := range bodies {
		found := false
		ast.Inspect(b.block, func(n ast.Node) bool {
			if x, ok := n.(*ast.SelectorExpr); ok && x.Sel.Name == "MaxBatch" {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// anyCall reports whether a call in any reachable body matches, each
// resolved with its own package's type information.
func anyCall(bodies []body, match func(*types.Func, *ast.CallExpr, *types.Info) bool) bool {
	for _, b := range bodies {
		found := false
		ast.Inspect(b.block, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeFunc(b.info, call); fn != nil && match(fn, call, b.info) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// hasSliceField reports whether t (struct or pointer-to-struct) has a
// slice-typed field anywhere in its reachable shape: directly, through
// embedding, or nested inside named struct or pointer fields. The
// recursion matters for tree-shaped request types (a composite query's
// clause tree holds its fan-out in nested []*Clause and []int32
// fields, none of them at the top level); a seen-set keeps recursive
// types from looping.
func hasSliceField(t types.Type) bool {
	return hasSliceFieldRec(t, map[types.Type]bool{})
}

func hasSliceFieldRec(t types.Type, seen map[types.Type]bool) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		switch u := ft.Underlying().(type) {
		case *types.Slice:
			return true
		case *types.Pointer:
			if hasSliceFieldRec(u.Elem(), seen) {
				return true
			}
		case *types.Struct:
			if hasSliceFieldRec(ft, seen) {
				return true
			}
		}
	}
	return false
}

// maxBytesFix inserts the body cap at the top of the handler when the
// declaration has the canonical (w http.ResponseWriter, r *http.Request)
// shape with named parameters.
func maxBytesFix(pass *Pass, h ast.Expr) (SuggestedFix, bool) {
	var id *ast.Ident
	switch x := h.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return SuggestedFix{}, false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return SuggestedFix{}, false
	}
	decl, ok := funcDecls(pass.Files, pass.TypesInfo)[fn]
	if !ok || decl.Type.Params == nil || len(decl.Type.Params.List) != 2 {
		return SuggestedFix{}, false
	}
	p := decl.Type.Params.List
	if len(p[0].Names) != 1 || len(p[1].Names) != 1 {
		return SuggestedFix{}, false
	}
	w, r := p[0].Names[0].Name, p[1].Names[0].Name
	return SuggestedFix{
		Message: "cap the request body with http.MaxBytesReader",
		TextEdits: []TextEdit{{
			Pos: decl.Body.Lbrace + 1,
			NewText: []byte(fmt.Sprintf(
				"\n%s.Body = http.MaxBytesReader(%s, %s.Body, 1<<20)", r, w, r)),
		}},
	}, true
}
