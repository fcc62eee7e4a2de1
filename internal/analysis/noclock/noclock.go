// Package noclock implements the nouslint rule that keeps plan execution and
// question parsing deterministic: inside internal/plan and internal/qa,
// reading the wall clock anywhere but the injected reference-time seam makes
// answers depend on when they ran — relative qualifiers ("last week") stop
// resolving against the caller-supplied instant, replayed plans diverge, and
// (epoch, window) cache keys stop being stable because the same question
// quantizes to a different window each call.
//
// time.Now() is permitted in exactly two shapes, both of which route the
// instant through the seam instead of using it directly:
//
//   - inside a function named "now": the `func (ex *Executor) now()` idiom
//     that falls back to the clock only when no ex.Now was injected;
//   - as an argument to a call whose callee name ends in "At" (ParseAt,
//     AskAt, ...): the wall clock is immediately reified into an explicit
//     reference time that flows through the deterministic path.
//
// Anything else needs a //nouslint:allow noclock -- <reason>.
//
// Why an analyzer: time.Now is a stdlib function every package can call, so
// no type or boundary keeps it out of two packages, and a test catches a
// clock read only on the paths it happens to run.
package noclock

import (
	"go/ast"

	"nous/internal/analysis"
)

// scopedPkgs are the packages (matched by path suffix) the rule applies to.
var scopedPkgs = []string{"internal/plan", "internal/qa"}

var Analyzer = &analysis.Analyzer{
	Name: "noclock",
	Doc: "time.Now() is banned in internal/plan and internal/qa except via the injected " +
		"reference-time seam (a now() fallback or an immediate *At(...) argument)",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	scoped := false
	for _, p := range scopedPkgs {
		if analysis.PkgPathIs(pass.Pkg.Path(), p) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "now" {
				// The injected-clock fallback seam itself.
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// seamArgs collects time.Now() calls appearing directly as arguments to
	// a *At(...) call; those route the clock through the reference-time seam.
	seamArgs := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := analysis.CalleeName(call); len(name) > 2 && name[len(name)-2:] == "At" {
			for _, arg := range call.Args {
				if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isTimeNow(pass, inner) {
					seamArgs[inner] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isTimeNow(pass, call) || seamArgs[call] {
			return true
		}
		pass.Reportf(call.Pos(),
			"time.Now() in %s breaks plan determinism: inject the reference time (Now field / ParseAt) instead",
			fd.Name.Name)
		return true
	})
}

func isTimeNow(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	return fn != nil && fn.Name() == "Now" && analysis.FuncPkgPath(fn) == "time"
}
