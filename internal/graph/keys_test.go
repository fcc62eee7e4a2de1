package graph

import (
	"reflect"
	"strings"
	"testing"
)

// The graph stores labels, property keys and property values as dense
// symtab.SymIDs, and every map inside its state keys off those IDs. A
// string-keyed map there would bring back a string header per entry and a
// variable-length hash per lookup, quietly undoing the columnar layout's
// bytes-per-fact budget while every behavioural test still passed. This test
// is what fails instead. The exported API types (Vertex, Edge, EdgeSpec,
// Mutation) carry string props by design, but none of them is stored: they
// are built at the boundary, so the walk never reaches them.
func TestGraphStateKeysAreInterned(t *testing.T) {
	for _, root := range []reflect.Type{reflect.TypeFor[Graph](), reflect.TypeFor[View](), reflect.TypeFor[Ranks]()} {
		for _, m := range stringKeyedMaps(root) {
			t.Errorf("string-keyed map in graph state: %s (key by symtab.SymID)", m)
		}
	}
}

// The walker must see through the layers a map can hide behind.
func TestStringKeyedMapsFindsBuriedMap(t *testing.T) {
	type name string
	type row struct{ byName map[name]int }
	type synthetic struct {
		ok   map[VertexID]string
		rows []*[2]row
		hook func(map[string]int)
	}
	got := stringKeyedMaps(reflect.TypeFor[synthetic]())
	if len(got) != 1 || !strings.Contains(got[0], ".rows[]*[].byName") {
		t.Fatalf("stringKeyedMaps = %q, want only the map under .rows", got)
	}
}

// stringKeyedMaps walks every type reachable from root — struct fields, array
// and slice elements, pointer targets, map keys and values — and returns the
// path to each map whose key's underlying type is string. Func types are not
// entered: a hook holds no index state.
func stringKeyedMaps(root reflect.Type) []string {
	var found []string
	seen := make(map[reflect.Type]bool)
	var walk func(t reflect.Type, path string)
	walk = func(t reflect.Type, path string) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array, reflect.Slice:
			walk(t.Elem(), path+"[]")
		case reflect.Pointer:
			walk(t.Elem(), path+"*")
		case reflect.Map:
			if t.Key().Kind() == reflect.String {
				found = append(found, path+" "+t.String())
			}
			walk(t.Key(), path+"[key]")
			walk(t.Elem(), path+"[value]")
		}
	}
	walk(root, root.String())
	return found
}
