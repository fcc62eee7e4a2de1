package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PkgPathIs reports whether path is the package named by suffix, matching
// either exactly or on a whole "/"-separated suffix. Analyzers match package
// identity by suffix ("internal/graph") so the same rule works against the
// real module ("nous/internal/graph") and against test fixtures loaded from
// an analyzer's testdata tree.
func PkgPathIs(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// CalleeFunc resolves the *types.Func a call expression invokes, whether the
// callee is a plain identifier, a package-qualified selector or a method
// selection. It returns nil for indirect calls through function values and
// for type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: graph.PageRank(...).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// CalleeName returns the bare name of the called function or method, or ""
// when the callee is not a simple identifier or selector.
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// FuncPkgPath returns the package path a *types.Func was declared in, or ""
// for builtins.
func FuncPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// ExprString renders a (small) expression for use in diagnostics. It
// intentionally covers only the shapes diagnostics name: identifiers,
// selectors, indexing, calls and unary/star.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return ExprString(e.X) + "[" + ExprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + ExprString(e.X)
	case *ast.CallExpr:
		return ExprString(e.Fun) + "(…)"
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.BasicLit:
		return e.Value
	}
	return "…"
}

// MentionsIdent reports whether expr mentions an identifier resolving (via
// info.Uses) to obj.
func MentionsIdent(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
