// Package prgate implements the nouslint rule keeping PageRank off the query
// path: internal/analytics memoizes the compiled graph view per epoch and its
// PageRank vectors per (epoch, window) (with singleflight and a staleness
// budget), and that cache is only effective if it is the single recompute
// point. A stray graph.Compile or View.PageRank call from a query package
// silently reintroduces the seed's recompute-per-request behaviour — the
// ~100× regression PR 2 removed — without failing any test.
package prgate

import (
	"go/ast"

	"nous/internal/analysis"
)

// graphPkg is the package (matched by path suffix) whose PageRank entry
// points — compiling a view and running the kernel over one — are gated, and
// allowedPkgs are the packages permitted to call them.
const graphPkg = "internal/graph"

var gatedFuncs = map[string]bool{"Compile": true, "PageRank": true}

var allowedPkgs = []string{
	"internal/analytics", // the epoch-memoized cache: the single recompute point
	"internal/graph",     // the implementation itself
}

var Analyzer = &analysis.Analyzer{
	Name: "prgate",
	Doc: "graph.Compile and View.PageRank may only be called from internal/analytics " +
		"(and tests); everything else must go through the epoch-memoized analytics.Cache",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, allowed := range allowedPkgs {
		if analysis.PkgPathIs(pass.Pkg.Path(), allowed) {
			return nil, nil
		}
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || !gatedFuncs[fn.Name()] {
				return true
			}
			if !analysis.PkgPathIs(analysis.FuncPkgPath(fn), graphPkg) {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to graph.%s outside internal/analytics: query paths must use the epoch-memoized analytics.Cache",
				fn.Name())
			return true
		})
	}
	return nil, nil
}
