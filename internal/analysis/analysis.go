// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API surface that nouslint's analyzers
// program against. The container this repo builds in has no module proxy
// access and the module is deliberately stdlib-only, so instead of vendoring
// x/tools we keep the analyzers written to the upstream shape (Analyzer,
// Pass, Diagnostic) and supply the ~150 lines of harness they need. If the
// module ever grows a real x/tools dependency, each analyzer ports by
// changing one import line.
//
// On top of the upstream shape this package adds the //nouslint:allow
// suppression protocol shared by every analyzer:
//
//	//nouslint:allow <rule> -- <reason>
//
// placed on the flagged line or the line immediately above suppresses a
// diagnostic from analyzer <rule>. The reason is mandatory: an allow without
// one is itself reported. Suppressions are counted per Pass so drivers can
// surface how many findings are being waived.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one nouslint rule: a name (also the rule token accepted
// by //nouslint:allow), documentation, the function that runs it, and the
// fact types it exchanges across package boundaries.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)

	// FactTypes declares the fact types this analyzer may export or
	// import, each as a pointer to the zero struct. Exporting or importing
	// an undeclared fact type panics.
	FactTypes []Fact
}

// Diagnostic is one finding, positioned inside Pass.Fset.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. It is pre-wired by NewPass to apply
	// //nouslint:allow suppression before forwarding to the sink.
	Report func(Diagnostic)

	// Suppressed counts diagnostics waived by a well-formed allow
	// directive during this pass.
	Suppressed int

	allows    map[string][]*allowDirective // file name -> directives
	sink      func(Diagnostic)
	facts     *FactStore
	pkgByPath map[string]*types.Package // lazy transitive-import index
}

// lookupPkg resolves a package path to a *types.Package visible from this
// pass: the pass's own package or anything in its transitive imports.
func (p *Pass) lookupPkg(path string) *types.Package {
	if p.pkgByPath == nil {
		p.pkgByPath = make(map[string]*types.Package)
		var walk func(pkg *types.Package)
		walk = func(pkg *types.Package) {
			if pkg == nil || p.pkgByPath[pkg.Path()] != nil {
				return
			}
			p.pkgByPath[pkg.Path()] = pkg
			for _, imp := range pkg.Imports() {
				walk(imp)
			}
		}
		walk(p.Pkg)
	}
	return p.pkgByPath[path]
}

// checkFactType panics unless the analyzer declared fact's type in FactTypes,
// which keeps an analyzer's cross-package contract listed next to its name.
func (p *Pass) checkFactType(fact Fact) {
	if err := validFact(fact); err != nil {
		panic(fmt.Sprintf("%s: %v", p.Analyzer.Name, err))
	}
	for _, f := range p.Analyzer.FactTypes {
		if reflect.TypeOf(f) == reflect.TypeOf(fact) {
			return
		}
	}
	panic(fmt.Sprintf("%s: fact type %T not declared in FactTypes", p.Analyzer.Name, fact))
}

// ExportObjectFact records fact about obj, which must be a package-level
// object (or method of a package-level type) of the package under analysis.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.checkFactType(fact)
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact: object %v is not from package %v", p.Analyzer.Name, obj, p.Pkg))
	}
	path, ok := ObjectPath(obj)
	if !ok {
		panic(fmt.Sprintf("%s: ExportObjectFact: no object path for %v (facts attach to package-level objects and methods only)", p.Analyzer.Name, obj))
	}
	p.facts.put(p.Analyzer.Name, p.Pkg.Path(), path, fact)
}

// ImportObjectFact copies into fact the fact of fact's type previously
// exported about obj — by this pass or an earlier pass in the same run — and
// reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	p.checkFactType(fact)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path, ok := ObjectPath(obj)
	if !ok {
		return false
	}
	return p.facts.get(p.Analyzer.Name, obj.Pkg().Path(), path, fact)
}

// ExportPackageFact records fact about the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.checkFactType(fact)
	p.facts.put(p.Analyzer.Name, p.Pkg.Path(), "", fact)
}

// ImportPackageFact copies into fact the package fact of fact's type
// recorded about pkg, reporting whether one existed.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	p.checkFactType(fact)
	if pkg == nil {
		return false
	}
	return p.facts.get(p.Analyzer.Name, pkg.Path(), "", fact)
}

// AllObjectFacts returns every object fact visible to this analyzer, sorted
// by (package, object, fact type). Object is resolved where the current
// pass's import graph can see the package.
func (p *Pass) AllObjectFacts() []ObjectFact {
	var out []ObjectFact
	p.facts.mu.RLock()
	defer p.facts.mu.RUnlock()
	for k, f := range p.facts.facts {
		if k.analyzer != p.Analyzer.Name || k.obj == "" {
			continue
		}
		out = append(out, ObjectFact{
			PkgPath: k.pkg,
			ObjPath: k.obj,
			Object:  resolveObject(p.lookupPkg(k.pkg), k.obj),
			Fact:    f,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.ObjPath != b.ObjPath {
			return a.ObjPath < b.ObjPath
		}
		return factTypeName(a.Fact) < factTypeName(b.Fact)
	})
	return out
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// allowDirective is one parsed //nouslint:allow comment.
type allowDirective struct {
	line   int // line the directive suppresses (the comment line; also covers line+1)
	ownLn  int // line the comment itself sits on, for error reporting
	pos    token.Pos
	rules  []string
	reason string
}

var allowRe = regexp.MustCompile(`^//nouslint:allow\s+([a-z, ]+?)\s*(?:--\s*(.*))?$`)

// NewPass builds a Pass for one package, scanning its files for
// //nouslint:allow directives and wiring Report through the suppression
// filter into sink. A directive naming the pass's analyzer with an empty
// reason is reported immediately as malformed. Facts are exchanged through
// store; a nil store gives the pass a private, empty one (facts then flow
// within the pass but go nowhere).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sink func(Diagnostic), store *FactStore) *Pass {
	if store == nil {
		store = NewFactStore()
	}
	p := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		allows:    make(map[string][]*allowDirective),
		sink:      sink,
		facts:     store,
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//nouslint:") {
					continue
				}
				m := allowRe.FindStringSubmatch(text)
				pos := fset.Position(c.Pos())
				if m == nil {
					sink(Diagnostic{Pos: c.Pos(), Message: "malformed nouslint directive (want //nouslint:allow <rule> -- <reason>)"})
					continue
				}
				d := &allowDirective{line: pos.Line, ownLn: pos.Line, pos: c.Pos(), reason: strings.TrimSpace(m[2])}
				for _, r := range strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == ' ' }) {
					if r != "" {
						d.rules = append(d.rules, r)
					}
				}
				if d.matches(a.Name) && d.reason == "" {
					sink(Diagnostic{Pos: c.Pos(), Message: fmt.Sprintf("//nouslint:allow %s needs a reason (append `-- <why>`)", a.Name)})
					continue
				}
				p.allows[pos.Filename] = append(p.allows[pos.Filename], d)
			}
		}
	}
	p.Report = func(d Diagnostic) {
		if p.suppress(d) {
			p.Suppressed++
			return
		}
		p.sink(d)
	}
	return p
}

func (d *allowDirective) matches(rule string) bool {
	for _, r := range d.rules {
		if r == rule || r == "all" {
			return true
		}
	}
	return false
}

// suppress reports whether a well-formed allow directive for this analyzer
// covers the diagnostic: the directive sits on the same line (trailing
// comment) or on the line immediately above.
func (p *Pass) suppress(d Diagnostic) bool {
	pos := p.Fset.Position(d.Pos)
	for _, a := range p.allows[pos.Filename] {
		if !a.matches(p.Analyzer.Name) || a.reason == "" {
			continue
		}
		if a.line == pos.Line || a.line == pos.Line-1 {
			return true
		}
	}
	return false
}

// Run executes one analyzer over one package with a private fact store and
// returns the surviving diagnostics plus the count of allow-suppressed ones.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) (diags []Diagnostic, suppressed int, err error) {
	return RunFacts(a, fset, files, pkg, info, nil)
}

// RunFacts is Run against a caller-owned fact store: facts imported by the
// analyzer come from store, and facts it exports land there, so drivers that
// analyze packages in dependency order get cross-package propagation.
func RunFacts(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, store *FactStore) (diags []Diagnostic, suppressed int, err error) {
	pass := NewPass(a, fset, files, pkg, info, func(d Diagnostic) { diags = append(diags, d) }, store)
	if _, err := a.Run(pass); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", a.Name, err)
	}
	return diags, pass.Suppressed, nil
}

// NewInfo returns a types.Info with every map analyzers rely on allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
