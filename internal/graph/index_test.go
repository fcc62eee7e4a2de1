package graph

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// Property: AppendKey builds exactly Key, whatever the string and whatever
// the buffer already holds.
func TestAppendKeyIsKey(t *testing.T) {
	f := func(prefix []byte, s string) bool {
		got := AppendKey(slices.Clone(prefix), s)
		return string(got) == string(prefix)+Key(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"", "  ", " DJI Technology ", "ÉDOUARD", "\tMixed Ünïcode ", strings.Repeat("Long Name ", 20)} {
		if !f([]byte("x"), s) {
			t.Errorf("AppendKey(%q) = %q, want %q", s, AppendKey(nil, s), Key(s))
		}
	}
}

// filedNames lists the names of the vertices filed under key, sorted.
func filedNames(g *Graph, key string) []string {
	var out []string
	g.ScanFiled(key, func(v *VertexScan) { out = append(out, v.Name) })
	slices.Sort(out)
	return out
}

// TestIndexFilesNamedVertices pins the index rules: a named vertex is filed
// under its name's key and its aliases' keys, once each; Named matches the
// exact name only; an unnamed vertex and its aliases are not filed; a white
// space name is filed under the empty key.
func TestIndexFilesNamedVertices(t *testing.T) {
	g := New()
	apple := g.AddVertex("Company", "Apple")
	upper := g.AddVertex("Company", "APPLE")
	blank := g.AddVertex("Company", "")
	spaces := g.AddVertex("Company", "  ")
	g.AddVertexAlias(apple, "apple inc")
	g.AddVertexAlias(apple, "apple") // its own name's key: filed once
	g.AddVertexAlias(upper, " Apple Inc ")
	g.AddVertexAlias(blank, "apple")

	for name, want := range map[string]VertexID{"Apple": apple, "APPLE": upper, "  ": spaces} {
		if id, ok := g.Named(name); !ok || id != want {
			t.Errorf("Named(%q) = %d, %v; want %d", name, id, ok, want)
		}
	}
	for _, name := range []string{"apple", " Apple", "", " "} {
		if id, ok := g.Named(name); ok {
			t.Errorf("Named(%q) = %d, want none", name, id)
		}
	}
	for key, want := range map[string][]string{
		"apple":     {"APPLE", "Apple"},
		"apple inc": {"APPLE", "Apple"},
		"":          {"  "},
		"nobody":    nil,
	} {
		if got := filedNames(g, key); !reflect.DeepEqual(got, want) {
			t.Errorf("filed under %q: %q, want %q", key, got, want)
		}
	}
	if n := g.NumNamed(); n != 3 {
		t.Errorf("NumNamed = %d, want 3", n)
	}
	if name, ok := g.VertexName(blank); ok || name != "" {
		t.Errorf("VertexName(unnamed) = %q, %v", name, ok)
	}

	// A snapshot restored into another graph files the same vertices.
	r := New()
	snap := g.Snapshot()
	r.AdvanceIDs(snap.NextVertex, snap.NextEdge)
	if err := r.RestoreVertices(snap.Vertices); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"apple", "apple inc", ""} {
		if got, want := filedNames(r, key), filedNames(g, key); !reflect.DeepEqual(got, want) {
			t.Errorf("restored: filed under %q: %q, want %q", key, got, want)
		}
	}
	if r.NumNamed() != 3 {
		t.Errorf("restored NumNamed = %d, want 3", r.NumNamed())
	}
}
