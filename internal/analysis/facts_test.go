package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// testFact is the fact type the framework tests exchange.
type testFact struct{ Note string }

func (*testFact) AFact()           {}
func (f *testFact) String() string { return "testFact(" + f.Note + ")" }

// otherFact is a second fact type, carried as a package fact.
type otherFact struct{ N int }

func (*otherFact) AFact()         {}
func (*otherFact) String() string { return "otherFact" }

func checkPkg(t *testing.T, path, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	pkg, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}, pkg, info
}

const factSrc = `package p

type T struct{}

func (T) M() {}

func F() {}
`

func TestObjectPathRoundTrip(t *testing.T) {
	_, _, pkg, _ := checkPkg(t, "p", factSrc)
	for _, want := range []string{"F", "T", "T.M"} {
		obj := resolveObject(pkg, want)
		if obj == nil {
			t.Fatalf("resolveObject(%q) = nil", want)
		}
		got, ok := ObjectPath(obj)
		if !ok || got != want {
			t.Errorf("ObjectPath(%v) = %q, %v; want %q", obj, got, ok, want)
		}
	}
}

// Facts exported by one pass are imported by another sharing its store,
// keyed by object path rather than object identity: the second pass
// type-checks the package afresh, as an importer sees it through export data.
func TestFactGobRoundTrip(t *testing.T) {
	az := &Analyzer{
		Name:      "factprobe",
		Doc:       "test analyzer exchanging testFacts",
		FactTypes: []Fact{(*testFact)(nil), (*otherFact)(nil)},
		Run:       func(*Pass) (any, error) { return nil, nil },
	}

	fset, files, pkg, info := checkPkg(t, "dep", factSrc)
	store := NewFactStore()
	pass := NewPass(az, fset, files, pkg, info, func(Diagnostic) {}, store)
	pass.ExportObjectFact(pkg.Scope().Lookup("F"), &testFact{Note: "exported-on-F"})
	pass.ExportObjectFact(resolveObject(pkg, "T.M"), &testFact{Note: "exported-on-T.M"})
	pass.ExportPackageFact(&otherFact{N: 7})

	fset2, files2, pkg2, info2 := checkPkg(t, "dep", factSrc)
	pass2 := NewPass(az, fset2, files2, pkg2, info2, func(Diagnostic) {}, store)
	var tf testFact
	if !pass2.ImportObjectFact(pkg2.Scope().Lookup("F"), &tf) || tf.Note != "exported-on-F" {
		t.Errorf("ImportObjectFact(F) = %+v, want exported-on-F", tf)
	}
	if !pass2.ImportObjectFact(resolveObject(pkg2, "T.M"), &tf) || tf.Note != "exported-on-T.M" {
		t.Errorf("ImportObjectFact(T.M) = %+v, want exported-on-T.M", tf)
	}
	var of otherFact
	if !pass2.ImportPackageFact(pkg2, &of) || of.N != 7 {
		t.Errorf("ImportPackageFact = %+v, want N=7", of)
	}
	if all := pass2.AllObjectFacts(); len(all) != 2 {
		t.Errorf("AllObjectFacts = %v, want 2 entries", all)
	} else {
		if all[0].ObjPath != "F" || all[1].ObjPath != "T.M" {
			t.Errorf("AllObjectFacts order = %q, %q; want F, T.M", all[0].ObjPath, all[1].ObjPath)
		}
		if all[0].Object != pkg2.Scope().Lookup("F") || all[1].Object != resolveObject(pkg2, "T.M") {
			t.Errorf("AllObjectFacts objects not resolved against the importing pass: %v", all)
		}
	}
}

func TestUndeclaredFactTypeRejected(t *testing.T) {
	az := &Analyzer{Name: "nofacts", Run: func(*Pass) (any, error) { return nil, nil }}
	fset, files, pkg, info := checkPkg(t, "q", factSrc)
	pass := NewPass(az, fset, files, pkg, info, func(Diagnostic) {}, nil)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "not declared in FactTypes") {
			t.Errorf("ExportObjectFact with undeclared fact type: recover = %v, want FactTypes panic", r)
		}
	}()
	pass.ExportObjectFact(pkg.Scope().Lookup("F"), &testFact{Note: "boom"})
}
