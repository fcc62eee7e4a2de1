// Cross-package fact propagation. A Fact is a claim an analyzer proves about
// a package-level object (or a whole package) while analyzing the package
// that declares it, and consumes later while analyzing a package that
// imports it. Facts are what make the suite *modular*: windowthread can know
// that a callee in another package drops its window, and scanescape can know
// that a callee stashes its *graph.EdgeScan parameter, without ever seeing
// that callee's source. They travel through one shared FactStore: nouslint
// and analysistest analyze whole dependency slices in one process, in
// dependency order.
//
// Identity is textual, not pointer-based: a fact is keyed by (analyzer,
// package path, object path, fact type), where the object path is "Name" for
// a package-level object and "Type.Method" for a method. The same function is
// therefore found whether its package was type-checked from source (the
// declaring pass) or loaded from gc export data (an importing pass) — the two
// yield distinct *types.Package values, so object identity cannot be the key.
// The flip side is a deliberate restriction: facts attach only to
// package-level objects and methods of package-level named types, which is
// exactly what the analyzers need (functions and methods).
package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Fact is the marker interface for analyzer facts. Implementations must be
// pointers to structs and should implement fmt.Stringer — the string form is
// what // wantfact fixture assertions match against.
type Fact interface{ AFact() }

// ObjectPath names a package-level object, or a method of a package-level
// named type, relative to its package: "Name" or "Type.Method". It reports
// false for objects facts cannot attach to (locals, fields, builtins,
// interface methods of unnamed types).
func ObjectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

// resolveObject is ObjectPath's inverse against a concrete package: it finds
// the named object, descending through one "Type.Method" level. Unexported
// objects of packages loaded from gc export data are not present in the
// scope, so resolution can fail for facts that could never be consumed
// cross-package anyway.
func resolveObject(pkg *types.Package, path string) types.Object {
	if pkg == nil {
		return nil
	}
	tname, mname, isMethod := strings.Cut(path, ".")
	obj := pkg.Scope().Lookup(tname)
	if !isMethod || obj == nil {
		return obj
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == mname {
			return m
		}
	}
	return nil
}

// factKey identifies one stored fact.
type factKey struct {
	analyzer string
	pkg      string
	obj      string // "" for package facts
	typ      reflect.Type
}

// ObjectFact pairs a fact with the object it describes, as reported by
// AllObjectFacts. Object is resolved when the pass can see the package (its
// own, or a transitive import); the textual key is always present.
type ObjectFact struct {
	PkgPath string
	ObjPath string
	Object  types.Object // nil when unresolvable from the current pass
	Fact    Fact
}

// FactStore accumulates facts across passes. Drivers share one store per
// analysis run. All methods are safe for concurrent use — nouslint analyzes
// independent packages in parallel against one store (dependency ordering
// guarantees a package's own facts are complete before any importer reads
// them, but siblings race on the map itself).
type FactStore struct {
	mu    sync.RWMutex
	facts map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{facts: make(map[factKey]Fact)} }

func validFact(f Fact) error {
	t := reflect.TypeOf(f)
	if t == nil || t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("fact %T must be a pointer to a struct", f)
	}
	return nil
}

func (s *FactStore) put(analyzer, pkg, obj string, f Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.facts[factKey{analyzer, pkg, obj, reflect.TypeOf(f)}] = f
}

// get copies a stored fact into ptr (which selects the fact type) and reports
// whether one was found.
func (s *FactStore) get(analyzer, pkg, obj string, ptr Fact) bool {
	s.mu.RLock()
	f, ok := s.facts[factKey{analyzer, pkg, obj, reflect.TypeOf(ptr)}]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// ObjectFacts returns the object facts recorded for one analyzer about one
// package, sorted by object path then fact type. Objects are not resolved —
// callers outside a Pass (the fixture checker) work textually.
func (s *FactStore) ObjectFacts(analyzer, pkgPath string) []ObjectFact {
	var out []ObjectFact
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, f := range s.facts {
		if k.analyzer == analyzer && k.pkg == pkgPath && k.obj != "" {
			out = append(out, ObjectFact{PkgPath: k.pkg, ObjPath: k.obj, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ObjPath != out[j].ObjPath {
			return out[i].ObjPath < out[j].ObjPath
		}
		return factTypeName(out[i].Fact) < factTypeName(out[j].Fact)
	})
	return out
}

// factTypeName orders the facts of different types attached to one object.
func factTypeName(f Fact) string { return reflect.TypeOf(f).Elem().Name() }
