// Command nouslint is the multichecker for NOUS's invariant suite: five
// analyzers that mechanically enforce the architecture rules the codebase
// depends on but ordinary tests cannot pin down (the PageRank cache gate,
// time-window threading, plan determinism, symbol-interned graph index
// keys, and the zero-copy EdgeScan lifetime contract). See
// internal/analysis/<rule> for what each rule guards and why.
//
// It runs two ways:
//
//	go vet -vettool=$(pwd)/bin/nouslint ./...   # the vet unit-checker protocol
//	nouslint ./...                              # standalone, loads packages itself
//
// The vet protocol (config files, export data, -V/-flags handshake) is
// implemented here directly against cmd/go's contract, because this module
// is deliberately dependency-free and cannot vendor
// golang.org/x/tools/go/analysis/unitchecker; the protocol is small and
// stable, and implementing it keeps `go vet` integration (build caching,
// test packages, per-package export data) for free.
//
// Both drivers propagate cross-package facts (internal/analysis/facts.go).
// Under go vet each module package is analyzed in its own process, facts
// from direct dependencies arriving as gob-encoded .vetx files named in the
// config's PackageVetx map and this package's union (its own facts plus its
// deps', so one hop always suffices) written to VetxOutput. The -V=full
// version string folds in the analyzers' fact schema fingerprint, so
// changing a fact type's shape invalidates every cached vetx. Standalone
// mode analyzes the whole module in one process: packages are scheduled in
// dependency order against a shared in-memory fact store.
//
// Findings are suppressed line-by-line with
//
//	//nouslint:allow <rule> -- <reason>
//
// on the flagged line or the line above; the reason is mandatory and
// suppression counts are reported in standalone mode. With -json each
// finding is printed to stdout as one JSON object per line
// ({"file","line","col","rule","message"}) followed by a trailing
// {"suppressed":N} summary, for CI annotation tooling.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
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
	"nous/internal/analysis/internedkeys"
	"nous/internal/analysis/noclock"
	"nous/internal/analysis/prgate"
	"nous/internal/analysis/scanescape"
	"nous/internal/analysis/windowthread"
)

var allAnalyzers = []*analysis.Analyzer{
	prgate.Analyzer,
	windowthread.Analyzer,
	noclock.Analyzer,
	internedkeys.Analyzer,
	scanescape.Analyzer,
}

func init() {
	// Gob needs the concrete fact types registered before any vetx is
	// encoded or decoded, in every mode (including tests calling run).
	analysis.RegisterFactTypes(allAnalyzers)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("nouslint", flag.ContinueOnError)
	versionFlag := fs.String("V", "", "print version and exit (vet protocol handshake)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags in JSON (vet protocol handshake)")
	printPath := fs.Bool("print-path", false, "print the path of this executable and exit")
	jsonOut := fs.Bool("json", false, "print findings as one JSON object per line on stdout")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "packages analyzed concurrently in standalone mode (1 = serial)")
	enabled := make(map[string]*bool, len(allAnalyzers))
	for _, a := range allAnalyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *versionFlag != "":
		// cmd/go parses this as "<name> version <version>"; the version
		// carries the fact schema fingerprint plus a content hash of the
		// binary, so vet's result cache — and every cached .vetx fact
		// file keyed by it — invalidates when an analyzer or the shape
		// of any fact type changes.
		fmt.Printf("nouslint version v1.1.0-%s-%s\n", analysis.SchemaFingerprint(allAnalyzers), selfHash())
		return 0
	case *flagsFlag:
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var out []jsonFlag
		for _, a := range allAnalyzers {
			out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
		}
		data, _ := json.Marshal(out)
		fmt.Println(string(data))
		return 0
	case *printPath:
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nouslint:", err)
			return 1
		}
		fmt.Println(exe)
		return 0
	}

	var analyzers []*analysis.Analyzer
	for _, a := range allAnalyzers {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runUnitchecker(analyzers, rest[0], *jsonOut)
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	return runStandalone(analyzers, rest, *jsonOut, *parallel)
}

// selfHash fingerprints the running binary for the vet build cache.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// --- vet unit-checker protocol ---------------------------------------------

// vetConfig mirrors cmd/go/internal/work.vetConfig, the JSON the go command
// hands a -vettool for each package.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

func runUnitchecker(analyzers []*analysis.Analyzer, cfgPath string, jsonOut bool) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nouslint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "nouslint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// Every rule's facts concern this module's own declarations, so for
	// packages outside it (the go command runs the vettool over stdlib
	// dependencies too) the vetx is an empty fact stream, written without
	// parsing a single file.
	if !moduleOwned(&cfg) {
		return writeVetx(analysis.NewFactStore(), analyzers, cfg.VetxOutput)
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg.GoFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nouslint:", err)
		return 1
	}
	gc := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := &mappedImporter{underlying: gc, importMap: cfg.ImportMap}
	pkg, info, err := typecheck(fset, cfg.ImportPath, cfg.GoVersion, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "nouslint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	// Seed the fact store from the direct dependencies' vetx files. Each
	// vetx is a self-contained union (a package re-exports its deps'
	// facts alongside its own), so one hop reaches everything reachable.
	// A schema mismatch means a vetx from a different build of the tool —
	// the -V fingerprint handshake should have evicted it, so treat the
	// file as empty rather than failing the build.
	store := analysis.NewFactStore()
	for depPath, vetxFile := range cfg.PackageVetx {
		data, err := os.ReadFile(vetxFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nouslint: reading facts of %s: %v\n", depPath, err)
			return 1
		}
		if err := analysis.DecodeFacts(data, analyzers, store); err != nil && !errors.Is(err, analysis.ErrSchemaMismatch) {
			fmt.Fprintf(os.Stderr, "nouslint: decoding facts of %s: %v\n", depPath, err)
			return 1
		}
	}

	findings, suppressed, err := runAnalyzers(analyzers, fset, files, pkg, info, store)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nouslint:", err)
		return 1
	}
	if code := writeVetx(store, analyzers, cfg.VetxOutput); code != 0 {
		return code
	}
	if cfg.VetxOnly {
		// Dependency package: facts are the only deliverable.
		return 0
	}
	if len(findings) > 0 {
		printFindings(fset, findings, suppressed, jsonOut)
		return 2
	}
	return 0
}

// moduleOwned reports whether the configured package belongs to this module
// (including its test variants, whose ImportPaths extend the package path).
func moduleOwned(cfg *vetConfig) bool {
	mod := cfg.ModulePath
	if mod == "" {
		mod = "nous"
	}
	return cfg.ImportPath == mod || strings.HasPrefix(cfg.ImportPath, mod+"/")
}

// writeVetx gob-encodes the fact store to the vetx output file the go
// command asked for. Skipped silently when no output was requested.
func writeVetx(store *analysis.FactStore, analyzers []*analysis.Analyzer, output string) int {
	if output == "" {
		return 0
	}
	data, err := analysis.EncodeFacts(store, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nouslint: encoding facts:", err)
		return 1
	}
	if err := os.WriteFile(output, data, 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "nouslint:", err)
		return 1
	}
	return 0
}

// mappedImporter applies a vet config's ImportMap before delegating to the
// export-data importer, and short-circuits "unsafe".
type mappedImporter struct {
	underlying types.Importer
	importMap  map[string]string
}

func (m *mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return m.underlying.Import(path)
}

// --- standalone driver ------------------------------------------------------

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
// included, scheduled against one shared in-memory fact store, so facts flow
// exactly as they do through vetx files under go vet. Packages with no
// unanalyzed module imports run concurrently, up to parallel workers; a
// package is dispatched only after every module package it imports has
// completed, which preserves the fact-flow guarantees of the serial
// schedule. Each imported dependency is type-checked from its export data
// (never from a sibling's in-progress source check), so packages only
// couple through the mutex-guarded fact store and importer. Results are
// buffered and printed in the serial dependency order, making the output
// byte-identical to -parallel=1. Diagnostics are reported only for the
// packages the patterns named; dependencies pulled in for fact computation
// stay silent — except that with -json each named package's exported object
// facts are also emitted (lines carrying "analyzer" instead of "rule").
// Test files are not loaded in this mode; the vet protocol path covers them.
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
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	// The gc export-data importer mutates its package cache per Import; the
	// workers share it behind a mutex (token.FileSet locks internally).
	imp := &lockedImporter{underlying: &mappedImporter{underlying: gc}}

	store := analysis.NewFactStore()
	results := analyzePackages(analyzers, fset, imp, store, modPkgs, order, parallel)

	exit := 0
	totalSuppressed := 0
	for _, path := range order {
		res := results[path]
		if res.errMsg != "" {
			// Same contract as the serial loop: the first (dependency-order)
			// failure aborts the run; nothing past it is reported.
			fmt.Fprintln(os.Stderr, res.errMsg)
			return 1
		}
		if modPkgs[path].DepOnly {
			continue // analyzed for facts alone
		}
		totalSuppressed += res.suppressed
		if len(res.findings) > 0 {
			printFindings(fset, res.findings, 0, jsonOut)
			exit = 2
		}
		if jsonOut {
			printFacts(analyzers, store, path)
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

// analyzeOne fills res with one package's findings (or its first error,
// formatted exactly as the serial driver printed it).
func analyzeOne(analyzers []*analysis.Analyzer, fset *token.FileSet, imp types.Importer, store *analysis.FactStore, p *listedPackage, res *pkgResult) {
	var names []string
	names = append(names, p.GoFiles...)
	names = append(names, p.CgoFiles...)
	for i, n := range names {
		names[i] = p.Dir + string(os.PathSeparator) + n
	}
	files, err := parseFiles(fset, names)
	if err != nil {
		res.errMsg = fmt.Sprintf("nouslint: %v", err)
		return
	}
	pkg, info, err := typecheck(fset, p.ImportPath, "", files, imp)
	if err != nil {
		res.errMsg = fmt.Sprintf("nouslint: %s: %v", p.ImportPath, err)
		return
	}
	res.findings, res.suppressed, err = runAnalyzers(analyzers, fset, files, pkg, info, store)
	if err != nil {
		res.errMsg = fmt.Sprintf("nouslint: %v", err)
	}
}

// lockedImporter serializes a non-concurrency-safe importer shared by the
// parallel workers.
type lockedImporter struct {
	mu         sync.Mutex
	underlying types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.underlying.Import(path)
}

// --- shared core ------------------------------------------------------------

func parseFiles(fset *token.FileSet, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func typecheck(fset *token.FileSet, path, goVersion string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := analysis.NewInfo()
	conf := types.Config{Importer: imp}
	if strings.HasPrefix(goVersion, "go") {
		conf.GoVersion = goVersion
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
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

// jsonFact is the -json wire form of one exported object fact — the
// cross-package claims (e.g. scanescape's retainsScanArg, windowthread's
// dropsWindow) a package's analysis proved about its declarations. Fact
// lines carry "analyzer" where findings carry "rule", so finding consumers
// filtering on .rule are unaffected.
type jsonFact struct {
	Package  string `json:"package"`
	Object   string `json:"object"`
	Analyzer string `json:"analyzer"`
	Fact     string `json:"fact"`
}

// printFacts emits one JSON line per object fact the analyzers exported for
// the package, in (analyzer, object, fact type) order.
func printFacts(analyzers []*analysis.Analyzer, store *analysis.FactStore, pkgPath string) {
	enc := json.NewEncoder(os.Stdout)
	for _, a := range analyzers {
		for _, of := range store.ObjectFacts(a.Name, pkgPath) {
			enc.Encode(jsonFact{Package: of.PkgPath, Object: of.ObjPath, Analyzer: a.Name, Fact: fmt.Sprint(of.Fact)})
		}
	}
}

func printFindings(fset *token.FileSet, findings []finding, suppressed int, jsonOut bool) {
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
	if suppressed > 0 {
		fmt.Printf("{\"suppressed\":%d}\n", suppressed)
	}
}
