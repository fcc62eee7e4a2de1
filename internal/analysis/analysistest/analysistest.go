// Package analysistest runs a nouslint analyzer over fixture packages laid
// out GOPATH-style under an analyzer's testdata directory and checks its
// diagnostics against // want "regexp" comments, mirroring (a useful subset
// of) golang.org/x/tools/go/analysis/analysistest:
//
//	testdata/src/<import/path>/*.go
//
// Fixture files annotate the lines they expect findings on:
//
//	return graph.Compile(g, nil) // want `outside internal/core`
//
// Every `// want` pattern must be matched by exactly one diagnostic on that
// line and every diagnostic must be claimed by a pattern; leftovers on
// either side fail the test. A fixture line with no comment asserts the
// analyzer stays silent there, which is how each rule's negative cases are
// pinned.
//
// Imports inside fixtures resolve against testdata/src first, so a fixture
// can model "nous/internal/graph" with a ten-line fake; anything else is
// type-checked from GOROOT source via the stdlib source importer.
//
// Fixtures are multi-package: every fixture package a named package
// (transitively) imports is itself analyzed, in dependency order, against a
// shared fact store — so facts exported while analyzing a dependency are
// importable when its dependents are analyzed, exactly as the real drivers
// propagate them. Only the packages named in the Run call have their
// diagnostics and facts checked; dependencies pulled in by imports are
// analyzed for their fact side effects alone.
//
// Exported object facts are asserted with
//
//	// wantfact Name:"pattern"
//	// wantfact Type.Method:"pattern"
//
// anywhere in the fixture package: the named object must carry a fact whose
// string form matches the pattern. Every wantfact must be satisfied or the
// test fails.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"nous/internal/analysis"
)

// Run loads each fixture package below testdata/src, analyzes every loaded
// package (named ones and their fixture dependencies) in dependency order
// against one shared fact store, and reports mismatches between diagnostics
// and // want expectations — and between exported facts and // wantfact
// expectations — for the named packages on t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	ld := newLoader(testdata)
	for _, path := range pkgpaths {
		if _, err := ld.load(path); err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			return
		}
	}

	// ld.order is completion order: a package finishes loading only after
	// its fixture imports have, so it is a topological order of the
	// dependency graph — the order facts must flow in.
	store := analysis.NewFactStore()
	diagsByPkg := make(map[string][]analysis.Diagnostic, len(ld.order))
	for _, path := range ld.order {
		pkg := ld.pkgs[path]
		diags, _, err := analysis.RunFacts(a, ld.fset, pkg.files, pkg.types, pkg.info, store)
		if err != nil {
			t.Errorf("%s: running %s: %v", path, a.Name, err)
			return
		}
		diagsByPkg[path] = diags
	}
	for _, path := range pkgpaths {
		pkg := ld.pkgs[path]
		check(t, ld.fset, path, pkg.files, diagsByPkg[path])
		checkFacts(t, ld.fset, pkg.files, store.ObjectFacts(a.Name, path))
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want (.*)$")
var wantArgRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
var wantFactRe = regexp.MustCompile(`// wantfact ([\w.]+):"((?:[^"\\]|\\.)*)"`)

// checkFacts verifies every // wantfact comment in the package against the
// object facts the analyzer exported for it.
func checkFacts(t *testing.T, fset *token.FileSet, files []*ast.File, facts []analysis.ObjectFact) {
	t.Helper()
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantFactRe.FindAllStringSubmatch(c.Text, -1) {
					pos := fset.Position(c.Pos())
					objPath, pat := m[1], m[2]
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad // wantfact pattern %q: %v", pos, pat, err)
						continue
					}
					found := false
					for _, of := range facts {
						if of.ObjPath == objPath && re.MatchString(fmt.Sprint(of.Fact)) {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("%s: expected fact on %s matching %q; exported facts: %v", pos, objPath, pat, factsOn(facts, objPath))
					}
				}
			}
		}
	}
}

// factsOn renders the facts exported for one object, for failure messages.
func factsOn(facts []analysis.ObjectFact, objPath string) []string {
	var out []string
	for _, of := range facts {
		if of.ObjPath == objPath {
			out = append(out, fmt.Sprint(of.Fact))
		}
	}
	return out
}

func check(t *testing.T, fset *token.FileSet, pkgpath string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				args := wantArgRe.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Errorf("%s: malformed // want comment: %s", pos, c.Text)
					continue
				}
				for _, arg := range args {
					pat := arg[1]
					if pat == "" {
						pat = arg[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad // want pattern %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
	_ = pkgpath
}

// loader type-checks fixture packages with memoization. Fixture import paths
// shadow real ones; everything unknown falls back to the GOROOT source
// importer.
type loader struct {
	root   string // testdata directory
	fset   *token.FileSet
	pkgs   map[string]*fixturePkg
	order  []string // load-completion order == dependency order
	stdlib types.Importer
}

type fixturePkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func newLoader(testdata string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:   testdata,
		fset:   fset,
		pkgs:   make(map[string]*fixturePkg),
		stdlib: importer.ForCompiler(fset, "source", nil),
	}
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if p, ok := ld.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	ld.pkgs[path] = nil // cycle marker
	dir := filepath.Join(ld.root, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: (*fixtureImporter)(ld)}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p := &fixturePkg{files: files, types: tpkg, info: info}
	ld.pkgs[path] = p
	ld.order = append(ld.order, path)
	return p, nil
}

// fixtureImporter adapts loader to types.Importer, preferring fixture
// packages over the stdlib.
type fixtureImporter loader

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	ld := (*loader)(fi)
	if dir := filepath.Join(ld.root, "src", filepath.FromSlash(path)); dirExists(dir) {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return ld.stdlib.Import(path)
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
