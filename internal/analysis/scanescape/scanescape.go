// Package scanescape implements the nouslint rule that makes the zero-copy
// EdgeScan contract machine-checked. internal/graph's scan API hands
// callbacks a *graph.EdgeScan that is a stack-reused projection of the
// columnar slab: ForEachOutScan and friends fill ONE view per iteration and
// pass its address, so the moment the callback returns — in fact the moment
// the next edge is visited — the view's fields describe a different edge and
// its chunk pointer aliases storage the graph still owns. The scan.go doc
// comment says "valid only inside the callback"; nothing enforced it.
//
// The rule: a *graph.EdgeScan received as a parameter (by a scan callback
// literal, or by any named function) must not outlive the call. Flagged
// escapes:
//
//   - assignment to a package-level variable, a variable captured from an
//     enclosing function, a struct field, a map/slice element, or through a
//     pointer;
//   - appending it to any slice;
//   - sending it on a channel;
//   - returning it;
//   - capture by a goroutine or by a closure that may outlive the call
//     (immediately-invoked and deferred literals are exempt: they run before
//     the call returns);
//   - placing it in a composite literal;
//   - passing it to a function that is itself known to retain its
//     *graph.EdgeScan parameter.
//
// e.Materialize() is the sanctioned escape hatch: it copies the view into an
// owned Edge value, and calls to it are never flagged.
//
// The last bullet is where cross-package facts come in. A named function (or
// method) whose *graph.EdgeScan parameter escapes is not flagged at its
// definition — handed an owned view it would be harmless — but it is marked
// with the retainsScanArg object fact, computed to a fixpoint within the
// package (a function that forwards its view to a retainer is itself a
// retainer) and exported to the driver's fact store. Every call site that
// feeds a live scan view to a fact-marked function is then flagged, even
// when the retaining function lives in another package.
//
// Calls through interfaces and func values are not followed: a callee the
// analyzer cannot name carries no fact. That blind spot is accepted rather
// than closed, because nothing travels through it: no interface in the module
// has a method taking a *graph.EdgeScan (scans travel as func values, and
// every literal receiving a view is checked where it is written), and no
// named function in the module retains its view. An interface method that
// takes a view would need this rule extended first.
//
// Why an analyzer: the scan stays zero-copy only by reusing one view per
// iteration, no type can say "not after the callback returns", and a
// test catches a stored view only on a path that reads it after the scan has
// moved on.
package scanescape

import (
	"go/ast"
	"go/token"
	"go/types"

	"nous/internal/analysis"
)

// RetainsScanArg marks a function that stores, returns, or otherwise lets a
// *graph.EdgeScan parameter outlive the call (directly or by forwarding it
// to another retainer).
type RetainsScanArg struct{}

func (*RetainsScanArg) AFact()         {}
func (*RetainsScanArg) String() string { return "retainsScanArg" }

var Analyzer = &analysis.Analyzer{
	Name: "scanescape",
	Doc: "a *graph.EdgeScan view is valid only inside its scan callback: it must not be " +
		"stored, sent, appended, returned, captured, or passed to a retainsScanArg function " +
		"(Materialize() is the escape hatch)",
	FactTypes: []analysis.Fact{(*RetainsScanArg)(nil)},
	Run:       run,
}

const graphPkg = "internal/graph"

// isEdgeScanPtr reports whether t is *graph.EdgeScan.
func isEdgeScanPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "EdgeScan" && obj.Pkg() != nil && analysis.PkgPathIs(obj.Pkg().Path(), graphPkg)
}

func run(pass *analysis.Pass) (any, error) {
	// Phase 1: mark named functions whose view parameter escapes with the
	// retainsScanArg fact, iterating to a fixpoint so forwarding chains
	// (A passes its view to B, B stores it) are marked whatever order the
	// declarations appear in.
	type declInfo struct {
		fd     *ast.FuncDecl
		obj    types.Object
		params map[types.Object]bool
		marked bool
	}
	var decls []*declInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := scanParams(pass, fd.Type)
			if len(params) == 0 {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			decls = append(decls, &declInfo{fd: fd, obj: obj, params: params})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if d.marked {
				continue
			}
			if len(findEscapes(pass, d.fd.Body, d.params)) > 0 {
				pass.ExportObjectFact(d.obj, &RetainsScanArg{})
				d.marked = true
				changed = true
			}
		}
	}

	// Phase 2: diagnose scan callbacks — every function literal with a
	// *graph.EdgeScan parameter. Named functions are covered by the fact
	// (their callers are flagged); literals ARE the call sites where a
	// live view exists, so escapes here are violations.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			params := scanParams(pass, lit.Type)
			if len(params) == 0 {
				return true
			}
			for _, esc := range findEscapes(pass, lit.Body, params) {
				pass.Reportf(esc.pos, "scan view escapes its callback: %s (copy fields out or use Materialize())", esc.how)
			}
			return true
		})
	}
	return nil, nil
}

// scanParams collects the declared *graph.EdgeScan parameters of a function
// type.
func scanParams(pass *analysis.Pass, ft *ast.FuncType) map[types.Object]bool {
	params := make(map[types.Object]bool)
	if ft.Params == nil {
		return params
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil && isEdgeScanPtr(obj.Type()) {
				params[obj] = true
			}
		}
	}
	return params
}

// escape is one way a tracked view outlives its call.
type escape struct {
	pos token.Pos
	how string
}

// findEscapes analyzes one function body whose tracked parameters hold live
// scan views and returns every way a view (or a local alias of one) escapes.
func findEscapes(pass *analysis.Pass, body *ast.BlockStmt, params map[types.Object]bool) []escape {
	info := pass.TypesInfo

	// Local aliases: x := e (or x = e for an x declared in this body)
	// makes x carry the view. Iterate to a fixpoint so chains resolve.
	tracked := make(map[types.Object]bool, len(params))
	for p := range params {
		tracked[p] = true
	}
	declaredInside := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
	}
	trackedIdent := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && tracked[info.Uses[id]]
	}
	// trackedValue matches the view pointer itself and *e deref copies —
	// a copied EdgeScan still aliases the slab chunk it reads its row from, so
	// storing one is the same contract violation with extra steps.
	trackedValue := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if trackedIdent(e) {
			return true
		}
		star, ok := e.(*ast.StarExpr)
		return ok && trackedIdent(star.X)
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !trackedIdent(rhs) {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if declaredInside(obj) && !tracked[obj] {
					tracked[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// Classify closures up front: immediately-invoked (and deferred)
	// literals run before the enclosing call returns, so capture by them
	// is not an escape; goroutine bodies are reported at the go statement.
	iife := make(map[*ast.FuncLit]bool)
	goLit := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				iife[lit] = true
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				goLit[lit] = true
				delete(iife, lit)
			}
		}
		return true
	})

	mentionsTracked := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && tracked[info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}

	var escapes []escape
	report := func(pos token.Pos, how string) { escapes = append(escapes, escape{pos: pos, how: how}) }
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if iife[n] {
				return true // runs inline; keep checking its body
			}
			if goLit[n] {
				return false // reported at the go statement
			}
			if mentionsTracked(n) {
				report(n.Pos(), "captured by a closure that may outlive the callback")
			}
			return false
		case *ast.GoStmt:
			if mentionsTracked(n.Call) {
				report(n.Pos(), "captured by a goroutine")
			}
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !trackedValue(rhs) {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						continue // discard, not a store
					}
					obj := info.Defs[lhs]
					if obj == nil {
						obj = info.Uses[lhs]
					}
					if declaredInside(obj) {
						continue // local alias, tracked above
					}
					if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						report(rhs.Pos(), "assigned to package-level variable "+lhs.Name)
					} else {
						report(rhs.Pos(), "assigned to variable "+lhs.Name+" captured from outside the callback")
					}
				case *ast.SelectorExpr:
					report(rhs.Pos(), "stored in "+analysis.ExprString(lhs))
				case *ast.IndexExpr:
					report(rhs.Pos(), "stored into element "+analysis.ExprString(lhs))
				case *ast.StarExpr:
					report(rhs.Pos(), "stored through pointer "+analysis.ExprString(lhs))
				}
			}
		case *ast.SendStmt:
			if trackedValue(n.Value) {
				report(n.Value.Pos(), "sent on a channel")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if trackedValue(res) {
					report(res.Pos(), "returned from the function")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if trackedValue(v) {
					report(v.Pos(), "stored in a composite literal")
				}
			}
		case *ast.CallExpr:
			if name, ok := builtinName(info, n); ok {
				if name == "append" {
					for _, arg := range n.Args[1:] {
						if trackedValue(arg) {
							report(arg.Pos(), "appended to a slice")
						}
					}
				}
				return true
			}
			fn := analysis.CalleeFunc(info, n)
			if fn == nil {
				return true
			}
			var retains RetainsScanArg
			if pass.ImportObjectFact(fn, &retains) {
				for _, arg := range n.Args {
					if trackedValue(arg) {
						report(arg.Pos(), "passed to "+fn.Name()+", which retains its *graph.EdgeScan argument")
					}
				}
			}
		}
		return true
	})
	return escapes
}

// builtinName reports whether a call invokes a builtin, and which.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}
