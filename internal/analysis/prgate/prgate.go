// Package prgate implements the nouslint rule keeping PageRank off the query
// path: core.KG.CompileView compiles the graph view under the KG lock (the
// exact epoch cut), internal/analytics memoizes that view per epoch and its
// PageRank vectors per (epoch, window) with singleflight, and that cache is
// only effective if it is the single recompute point. A stray graph.Compile
// or View.PageRank call from a query package silently reintroduces the
// seed's recompute-per-request behaviour — a ~100× regression — without
// failing any test, and a Compile outside the KG lock can read a torn view.
//
// Why an analyzer: no unexported boundary can carry the rule. graph.Compile
// must stay callable from internal/core and View.PageRank from
// internal/analytics, both separate packages, and Go can only hide a name
// from every other package or from none.
package prgate

import (
	"go/ast"

	"nous/internal/analysis"
)

// graphPkg is the package (matched by path suffix) whose PageRank entry
// points — compiling a view and running the kernel over one — are gated, and
// allowedPkg names the one package permitted to call each (besides graphPkg
// itself).
const graphPkg = "internal/graph"

var allowedPkg = map[string]string{
	"Compile":  "internal/core",      // KG.CompileView: compiles under the KG read lock
	"PageRank": "internal/analytics", // the epoch-memoized cache: the single recompute point
}

var Analyzer = &analysis.Analyzer{
	Name: "prgate",
	Doc: "graph.Compile may only be called from internal/core and View.PageRank only from " +
		"internal/analytics (and tests); everything else must go through the epoch-memoized analytics.Cache",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if analysis.PkgPathIs(pass.Pkg.Path(), graphPkg) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			allowed, gated := allowedPkg[fn.Name()]
			if !gated || !analysis.PkgPathIs(analysis.FuncPkgPath(fn), graphPkg) || analysis.PkgPathIs(pass.Pkg.Path(), allowed) {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to graph.%s outside %s: query paths must use the epoch-memoized analytics.Cache",
				fn.Name(), allowed)
			return true
		})
	}
	return nil, nil
}
