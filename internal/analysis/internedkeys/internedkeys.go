// Package internedkeys implements the nouslint rule keeping internal/graph's
// index state symbol-interned: the memory-lean core stores labels, property
// keys and property values as dense symtab.SymIDs, and every persistent map
// inside the package — adjacency, label counts, property side tables — must
// key off those IDs. A raw string key reintroduces per-entry string headers
// and per-lookup hashing of variable-length data, quietly undoing the
// columnar layout's bytes-per-fact budget without failing any test.
//
// The rule inspects package-level type declarations in internal/graph:
// unexported struct fields and unexported named map types must not use a
// string-keyed map. Exported types (Vertex, Edge, EdgeSpec, Mutation, ...)
// are exempt — string props there are the materialization contract at the
// API boundary, where symbols are resolved back to strings.
package internedkeys

import (
	"go/ast"
	"go/token"
	"go/types"

	"nous/internal/analysis"
)

// graphPkg is the package (matched by path suffix) whose internal state the
// rule guards. The symtab subpackage is not matched: it owns the
// string<->SymID boundary and necessarily keys a map by string.
const graphPkg = "internal/graph"

var Analyzer = &analysis.Analyzer{
	Name: "internedkeys",
	Doc: "internal/graph index state (unexported structs and named map types) must key " +
		"maps by symtab.SymID, not raw strings; only exported API types carry string maps",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.PkgPathIs(pass.Pkg.Path(), graphPkg) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.IsExported() {
					continue
				}
				checkType(pass, ts)
			}
		}
	}
	return nil, nil
}

func checkType(pass *analysis.Pass, ts *ast.TypeSpec) {
	switch t := ts.Type.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			mt, ok := field.Type.(*ast.MapType)
			if !ok || !stringKeyed(pass, mt) {
				continue
			}
			pass.Reportf(field.Pos(),
				"string-keyed map field in unexported struct %s: graph index state must key by symtab.SymID, not raw strings",
				ts.Name.Name)
		}
	case *ast.MapType:
		if stringKeyed(pass, t) {
			pass.Reportf(ts.Pos(),
				"string-keyed map type %s: graph index state must key by symtab.SymID, not raw strings",
				ts.Name.Name)
		}
	}
}

// stringKeyed reports whether the map's key type has string as its
// underlying type (covers both `string` and string-based defined types).
func stringKeyed(pass *analysis.Pass, mt *ast.MapType) bool {
	kt := pass.TypesInfo.TypeOf(mt.Key)
	if kt == nil {
		return false
	}
	b, ok := kt.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}
