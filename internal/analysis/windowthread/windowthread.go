// Package windowthread implements the nouslint rule that keeps time windows
// threaded through the read stack. The windowed read layer works by
// convention: every store read has an unwindowed form M and a windowed form
// MWindow, with M delegating to MWindow(temporal.All()). A function that
// accepts a window but calls the unwindowed form of a callee — or passes a
// fresh temporal.All() where the caller's window should flow — silently
// widens the read to all time. Nothing crashes: "what did X do in 2015" just
// quietly answers from the whole stream, and the (epoch, window) cache keys
// stop meaning what they say.
//
// Inside internal/core, internal/plan and internal/pathsearch, for every
// function that accepts a window — a temporal.Window parameter directly, or
// an Options-style struct parameter carrying a temporal.Window field
// (pathsearch.Options) — the analyzer flags:
//
//   - calls to a callee M when a windowed sibling MWindow exists on the same
//     receiver (or in the same package): the window must be threaded through
//     the windowed form;
//   - window-typed call arguments built from whole cloth — temporal.All(),
//     temporal.Window{} literals — that do not mention any of the function's
//     window parameters: the caller's window is being dropped.
//
// Functions without a window parameter are unconstrained: reads that are
// *supposed* to be unbounded (Diff children evaluate under their own
// windows, trend baselines read all history) simply don't take a window.
// Plan operator nodes also carry windows as fields, but a node parameter is
// plan *data*, not a read view — the executor's ambient window parameter is
// where threading is enforced — so struct parameters only count when they
// are an Options-style bag (type name ending in "Options").
//
// Why an analyzer: the type system cannot carry this. M and MWindow are both
// legitimate API — M is MWindow(temporal.All()) for callers that hold no
// window — and no type can stop a function that holds a window from calling
// M, or from building temporal.All(). Deleting every M would only move
// temporal.All() into its callers, which is what the second check catches.
//
// The checks cross package boundaries through two object facts, computed for
// every package the driver feeds the analyzer (not just the scoped ones):
//
//   - windowedSiblings, exported on every function or method M whose package
//     (or receiver) also declares MWindow. Call sites resolve the sibling
//     question for an imported callee by importing this fact — never by
//     peeking at the callee package's scope — so the cross-package fixtures
//     fail loudly if fact propagation breaks;
//   - dropsWindow, exported on every window-accepting function that
//     internally widens a read (an unwindowed-sibling call or a fresh
//     unbounded window argument). A scoped function that threads its window
//     into an imported dropsWindow callee is flagged at the call site: the
//     window it forwards is dropped somewhere it cannot see.
package windowthread

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nous/internal/analysis"
)

// WindowedSiblings marks a function or method M whose declaring package (or
// receiver type) also declares a windowed form MWindow.
type WindowedSiblings struct{ Sibling string }

func (*WindowedSiblings) AFact()           {}
func (f *WindowedSiblings) String() string { return "windowedSiblings(" + f.Sibling + ")" }

// DropsWindow marks a window-accepting function that internally drops its
// window: calls an unwindowed sibling or conjures a fresh unbounded window.
type DropsWindow struct{}

func (*DropsWindow) AFact()         {}
func (*DropsWindow) String() string { return "dropsWindow" }

var Analyzer = &analysis.Analyzer{
	Name: "windowthread",
	Doc: "functions accepting a temporal.Window must thread it through every windowed " +
		"callee (no unwindowed-sibling calls, no fresh temporal.All() args, no forwarding " +
		"into imported callees that drop it)",
	FactTypes: []analysis.Fact{(*WindowedSiblings)(nil), (*DropsWindow)(nil)},
	Run:       run,
}

var scopedPkgs = []string{"internal/core", "internal/plan", "internal/pathsearch"}

const temporalPkg = "internal/temporal"

func run(pass *analysis.Pass) (any, error) {
	scoped := false
	for _, p := range scopedPkgs {
		if analysis.PkgPathIs(pass.Pkg.Path(), p) {
			scoped = true
			break
		}
	}
	// Fact phase runs everywhere the driver sends us: sibling pairs and
	// window-droppers in any package are relevant to scoped callers.
	exportSiblingFacts(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if checkFunc(pass, fd, scoped) > 0 {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					if _, ok := analysis.ObjectPath(obj); ok {
						pass.ExportObjectFact(obj, &DropsWindow{})
					}
				}
			}
		}
	}
	return nil, nil
}

// exportSiblingFacts records a windowedSiblings fact on every function or
// method M of this package that has a windowed form MWindow alongside it.
func exportSiblingFacts(pass *analysis.Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if strings.HasSuffix(name, "Window") {
				continue
			}
			if _, ok := scope.Lookup(name + "Window").(*types.Func); ok {
				pass.ExportObjectFact(obj, &WindowedSiblings{Sibling: name + "Window"})
			}
		case *types.TypeName:
			// An alias like `type KG = core.KG` resolves to a foreign
			// named type; its methods are core's to export, not ours.
			if obj.IsAlias() {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok || named.Obj().Pkg() != pass.Pkg {
				continue
			}
			methods := make(map[string]*types.Func, named.NumMethods())
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				methods[m.Name()] = m
			}
			for mname, m := range methods {
				if strings.HasSuffix(mname, "Window") {
					continue
				}
				if _, ok := methods[mname+"Window"]; ok {
					pass.ExportObjectFact(m, &WindowedSiblings{Sibling: mname + "Window"})
				}
			}
		}
	}
}

// isWindowType reports whether t is temporal.Window.
func isWindowType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Window" && obj.Pkg() != nil && analysis.PkgPathIs(obj.Pkg().Path(), temporalPkg)
}

// carriesWindow reports whether t is temporal.Window or a (pointer to an)
// Options-style struct with a temporal.Window field, like pathsearch.Options.
func carriesWindow(t types.Type) bool {
	if isWindowType(t) {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !strings.HasSuffix(named.Obj().Name(), "Options") {
		return false
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isWindowType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// checkFunc analyzes one window-accepting function and returns the number of
// window-dropping violations found (for the dropsWindow fact). Diagnostics
// are emitted only when report is true — fact computation runs in every
// package, reporting only in the scoped ones.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, report bool) int {
	// Collect the window-carrying parameters.
	var winParams []types.Object
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj != nil && carriesWindow(obj.Type()) {
					winParams = append(winParams, obj)
				}
			}
		}
	}
	if len(winParams) == 0 {
		return 0
	}

	violations := 0
	reportf := func(pos token.Pos, format string, args ...any) {
		violations++
		if report {
			pass.Reportf(pos, format, args...)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		checkSibling(pass, fd, call, reportf)
		for _, arg := range call.Args {
			checkFreshWindowArg(pass, winParams, call, arg, reportf)
		}
		if report {
			checkDropsCallee(pass, fd, winParams, call)
		}
		return true
	})
	return violations
}

// checkDropsCallee flags threading a window into an imported callee marked
// with the dropsWindow fact: the forwarded window is silently widened inside
// a package this pass cannot see. Same-package droppers are flagged at their
// own definition, so only cross-package callees are checked here. These call
// sites do not feed the caller's own dropsWindow fact — the caller threads
// its window correctly; the drop happens in the callee.
func checkDropsCallee(pass *analysis.Pass, fd *ast.FuncDecl, winParams []types.Object, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return
	}
	forwards := false
	for _, arg := range call.Args {
		for _, p := range winParams {
			if analysis.MentionsIdent(pass.TypesInfo, arg, p) {
				forwards = true
			}
		}
	}
	if !forwards {
		return
	}
	var drops DropsWindow
	if pass.ImportObjectFact(fn, &drops) {
		pass.Reportf(call.Pos(),
			"%s threads its window into %s.%s, which drops it internally (dropsWindow fact): the read silently covers all time",
			fd.Name.Name, fn.Pkg().Name(), fn.Name())
	}
}

// checkSibling flags calls to M when a windowed sibling MWindow exists. For
// a callee in the package under analysis the sibling is found in the local
// scope or method set; for an imported callee the question is answered
// EXCLUSIVELY by the windowedSiblings fact its own analysis exported —
// keeping the check honest about what modular analysis can see, and making
// the cross-package fixtures fail loudly if fact propagation regresses.
func checkSibling(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, reportf func(token.Pos, string, ...any)) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	name := fn.Name()
	if strings.HasSuffix(name, "Window") {
		return
	}
	// If the callee already accepts a window, the fresh-arg rule covers it.
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isWindowType(sig.Params().At(i).Type()) {
			return
		}
	}
	sibling := name + "Window"
	if fn.Pkg() != pass.Pkg {
		var ws WindowedSiblings
		if !pass.ImportObjectFact(fn, &ws) {
			return
		}
		sibling = ws.Sibling
	} else if recv := sig.Recv(); recv != nil {
		// Method: look for the sibling in the receiver's method set.
		ms := types.NewMethodSet(recv.Type())
		if ms.Lookup(fn.Pkg(), sibling) == nil {
			found := false
			for i := 0; i < ms.Len(); i++ {
				if ms.At(i).Obj().Name() == sibling {
					found = true
					break
				}
			}
			if !found {
				return
			}
		}
	} else {
		// Package function: look for the sibling in the local scope.
		if fn.Pkg().Scope().Lookup(sibling) == nil {
			return
		}
	}
	reportf(call.Pos(),
		"%s accepts a time window but calls unwindowed %s (windowed sibling %s exists): the read silently covers all time",
		fd.Name.Name, name, sibling)
}

// checkFreshWindowArg flags window-typed arguments conjured from nothing —
// temporal.All() or a Window literal — that ignore the function's window
// parameters.
func checkFreshWindowArg(pass *analysis.Pass, winParams []types.Object, call *ast.CallExpr, arg ast.Expr, reportf func(token.Pos, string, ...any)) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || !isWindowType(tv.Type) {
		return
	}
	fresh := false
	switch a := ast.Unparen(arg).(type) {
	case *ast.CallExpr:
		if fn := analysis.CalleeFunc(pass.TypesInfo, a); fn != nil &&
			fn.Name() == "All" && analysis.PkgPathIs(analysis.FuncPkgPath(fn), temporalPkg) {
			fresh = true
		}
	case *ast.CompositeLit:
		fresh = true
	}
	if !fresh {
		return
	}
	for _, p := range winParams {
		if analysis.MentionsIdent(pass.TypesInfo, arg, p) {
			return
		}
	}
	reportf(arg.Pos(),
		"window-accepting function passes a fresh unbounded window to %s instead of threading its own: the caller's window is dropped",
		analysis.ExprString(call.Fun))
}
