// Command nouslint runs NOUS's invariant suite: four analyzers that enforce
// architecture rules no type, unexported boundary or test can hold (the
// PageRank cache gate, time-window threading, plan determinism and the
// zero-copy EdgeScan lifetime contract). See internal/analysis/<rule> for
// what each rule guards and why.
//
//	nouslint [-json] [packages]    # packages default to ./...
//
// It loads the packages itself through `go list -deps -export` and analyzes
// every module package in one process, scheduled in dependency order against
// one in-memory fact store (internal/analysis/facts.go), so each package's
// analysis sees the facts its imports exported. Only non-test files are
// analyzed; no rule constrains test code.
//
// Findings are suppressed line-by-line with
//
//	//nouslint:allow <rule> -- <reason>
//
// on the flagged line or the line above; the reason is mandatory. With -json
// each finding is printed to stdout as one JSON object per line
// ({"file","line","col","rule","message"}) followed by a trailing
// {"suppressed":N} summary, for CI annotation tooling. The exit status is 0
// when clean, 2 when there are findings and 1 when packages fail to load or
// type-check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"

	"nous/internal/analysis"
	"nous/internal/analysis/noclock"
	"nous/internal/analysis/prgate"
	"nous/internal/analysis/scanescape"
	"nous/internal/analysis/windowthread"
)

var allAnalyzers = []*analysis.Analyzer{
	prgate.Analyzer,
	windowthread.Analyzer,
	noclock.Analyzer,
	scanescape.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("nouslint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "print findings as one JSON object per line on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return runStandalone(allAnalyzers, patterns, *jsonOut, runtime.GOMAXPROCS(0))
}

// listedPackage is the subset of `go list -json` output the driver needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Module     *struct{ Path string }
	DepOnly    bool
	Error      *struct{ Err string }
}

// runStandalone loads the requested packages (and their export data) through
// `go list -deps -export` and analyzes every module package — dependencies
// included, scheduled against one shared in-memory fact store. Packages with
// no unanalyzed module imports run concurrently, up to parallel workers; a
// package is dispatched only after every module package it imports has
// completed, so its pass sees its dependencies' full fact sets. Each imported
// dependency is type-checked from its export data (never from a sibling's
// in-progress source check), so packages only couple through the
// mutex-guarded fact store and importer. Results are buffered and printed in
// the serial dependency order, making the output byte-identical at any
// parallelism. Diagnostics are reported only for the packages the patterns
// named; dependencies pulled in for fact computation stay silent.
func runStandalone(analyzers []*analysis.Analyzer, patterns []string, jsonOut bool, parallel int) int {
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nouslint: go list:", err)
		return 1
	}
	exports := make(map[string]string)
	modPkgs := make(map[string]*listedPackage)
	var listOrder []string
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintln(os.Stderr, "nouslint: decoding go list output:", err)
			return 1
		}
		if p.Error != nil {
			fmt.Fprintf(os.Stderr, "nouslint: %s: %s\n", p.ImportPath, p.Error.Err)
			return 1
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			cp := p
			modPkgs[p.ImportPath] = &cp
			listOrder = append(listOrder, p.ImportPath)
		}
	}

	// Dependency-order schedule over the module packages: a package runs
	// only after every module package it imports has, so its pass can
	// import the facts theirs exported.
	var order []string
	visited := make(map[string]bool, len(modPkgs))
	var visit func(path string)
	visit = func(path string) {
		p, ok := modPkgs[path]
		if !ok || visited[path] {
			return
		}
		visited[path] = true
		for _, imp := range p.Imports {
			visit(imp)
		}
		order = append(order, path)
	}
	for _, path := range listOrder {
		visit(path)
	}

	fset := token.NewFileSet()
	imp := &lockedImporter{underlying: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})}

	store := analysis.NewFactStore()
	results := analyzePackages(analyzers, fset, imp, store, modPkgs, order, parallel)

	exit := 0
	totalSuppressed := 0
	for _, path := range order {
		res := results[path]
		if res.errMsg != "" {
			// The first (dependency-order) failure aborts the run; nothing
			// past it is reported.
			fmt.Fprintln(os.Stderr, res.errMsg)
			return 1
		}
		if modPkgs[path].DepOnly {
			continue // analyzed for facts alone
		}
		totalSuppressed += res.suppressed
		if len(res.findings) > 0 {
			printFindings(fset, res.findings, jsonOut)
			exit = 2
		}
	}
	if jsonOut {
		fmt.Printf("{\"suppressed\":%d}\n", totalSuppressed)
	} else if totalSuppressed > 0 {
		fmt.Fprintf(os.Stderr, "nouslint: %d finding(s) suppressed by //nouslint:allow\n", totalSuppressed)
	}
	return exit
}

// pkgResult is one package's buffered analysis outcome.
type pkgResult struct {
	findings   []finding
	suppressed int
	errMsg     string // pre-formatted; non-empty aborts reporting at this package
}

// analyzePackages runs every package in order through parse → typecheck →
// analyzers, dispatching a package as soon as all module packages it imports
// have completed (not merely started — an importer must see its dependencies'
// full fact sets). A failed dependency still releases its dependents: their
// type checks read export data, not the failed source pass, and the reporter
// stops at the first failure anyway.
func analyzePackages(analyzers []*analysis.Analyzer, fset *token.FileSet, imp types.Importer, store *analysis.FactStore, modPkgs map[string]*listedPackage, order []string, parallel int) map[string]*pkgResult {
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(order) {
		parallel = len(order)
	}

	indeg := make(map[string]int, len(order))
	dependents := make(map[string][]string)
	for _, path := range order {
		for _, im := range modPkgs[path].Imports {
			if _, ok := modPkgs[im]; ok {
				indeg[path]++
				dependents[im] = append(dependents[im], path)
			}
		}
	}

	results := make(map[string]*pkgResult, len(order))
	for _, path := range order {
		results[path] = &pkgResult{}
	}

	// Buffered to the package count, so completion-time enqueues never block
	// and workers drain to channel close with no separate done signal.
	ready := make(chan string, len(order))
	pending := len(order)
	var mu sync.Mutex
	for _, path := range order {
		if indeg[path] == 0 {
			ready <- path
		}
	}
	if pending == 0 {
		close(ready)
	}

	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range ready {
				analyzeOne(analyzers, fset, imp, store, modPkgs[path], results[path])
				mu.Lock()
				pending--
				for _, d := range dependents[path] {
					if indeg[d]--; indeg[d] == 0 {
						ready <- d
					}
				}
				if pending == 0 {
					close(ready)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results
}

// analyzeOne fills res with one package's findings, or its first error.
func analyzeOne(analyzers []*analysis.Analyzer, fset *token.FileSet, imp types.Importer, store *analysis.FactStore, p *listedPackage, res *pkgResult) {
	var files []*ast.File
	for _, name := range append(p.GoFiles, p.CgoFiles...) {
		f, err := parser.ParseFile(fset, p.Dir+string(os.PathSeparator)+name, nil, parser.ParseComments)
		if err != nil {
			res.errMsg = fmt.Sprintf("nouslint: %v", err)
			return
		}
		files = append(files, f)
	}
	info := analysis.NewInfo()
	pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
	if err != nil {
		res.errMsg = fmt.Sprintf("nouslint: %s: %v", p.ImportPath, err)
		return
	}
	res.findings, res.suppressed, err = runAnalyzers(analyzers, fset, files, pkg, info, store)
	if err != nil {
		res.errMsg = fmt.Sprintf("nouslint: %v", err)
	}
}

// lockedImporter serializes the gc export-data importer, which mutates its
// package cache on every Import, across the parallel workers
// (token.FileSet locks internally).
type lockedImporter struct {
	mu         sync.Mutex
	underlying types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.underlying.Import(path)
}

// finding is one diagnostic tagged with the rule that produced it.
type finding struct {
	pos  token.Pos
	rule string
	msg  string
}

func runAnalyzers(analyzers []*analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, store *analysis.FactStore) ([]finding, int, error) {
	var findings []finding
	suppressed := 0
	for _, a := range analyzers {
		d, s, err := analysis.RunFacts(a, fset, files, pkg, info, store)
		if err != nil {
			return nil, 0, err
		}
		for _, diag := range d {
			findings = append(findings, finding{pos: diag.Pos, rule: a.Name, msg: diag.Message})
		}
		suppressed += s
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	return findings, suppressed, nil
}

// jsonFinding is the -json wire form of one finding: one object per line on
// stdout, ready for GitHub annotation tooling.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func printFindings(fset *token.FileSet, findings []finding, jsonOut bool) {
	if !jsonOut {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(f.pos), f.msg, f.rule)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		pos := fset.Position(f.pos)
		enc.Encode(jsonFinding{File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: f.rule, Message: f.msg})
	}
}
