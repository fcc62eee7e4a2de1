package graph

import (
	"reflect"
	"testing"

	"nous/internal/graph/symtab"
)

// TestEmptyPropsExportNil pins the export-path allocation contract: elements
// created with empty (or nil) property maps materialize with Props == nil on
// every read path, never an allocated empty map.
func TestEmptyPropsExportNil(t *testing.T) {
	g := New()
	a := g.AddVertexWithProps("Person", map[string]string{})
	b := g.AddVertex("Person")
	id, err := g.AddEdgeFull(a, b, "knows", 1, 100, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}

	if v, ok := g.Vertex(a); !ok || v.Props != nil {
		t.Errorf("Vertex(a).Props: want nil, got %#v", v.Props)
	}
	if e, ok := g.Edge(id); !ok || e.Props != nil {
		t.Errorf("Edge(id).Props: want nil, got %#v", e.Props)
	}
	for _, e := range outEdges(g, a) {
		if e.Props != nil {
			t.Errorf("out-scan props: want nil, got %#v", e.Props)
		}
	}
	for _, e := range inEdges(g, b) {
		if e.Props != nil {
			t.Errorf("in-scan props: want nil, got %#v", e.Props)
		}
	}
	for _, e := range incidentEdges(g, a) {
		if e.Props != nil {
			t.Errorf("incident-scan props: want nil, got %#v", e.Props)
		}
	}
	snap := g.Snapshot()
	for _, vs := range snap.Vertices {
		for _, v := range vs {
			if v.Props != nil {
				t.Errorf("snapshot vertex props: want nil, got %#v", v.Props)
			}
		}
	}
	for _, es := range snap.Edges {
		for _, e := range es {
			if e.Props != nil {
				t.Errorf("snapshot edge props: want nil, got %#v", e.Props)
			}
		}
	}
	g.ForEachOutScan(a, func(e *EdgeScan) bool {
		if e.props != nil {
			t.Errorf("scan props: want nil, got %#v", e.props)
		}
		if m := e.Materialize(); m.Props != nil {
			t.Errorf("Materialize props: want nil, got %#v", m.Props)
		}
		return true
	})
}

// TestExportedPropsAreCopies pins that materialized Props maps are owned by
// the caller: mutating them must not leak back into the graph.
func TestExportedPropsAreCopies(t *testing.T) {
	g := New()
	a := g.AddVertexWithProps("Person", map[string]string{"name": "Ada"})
	b := g.AddVertex("Person")
	id, err := g.AddEdgeFull(a, b, "knows", 1, 100, map[string]string{"source": "s1"})
	if err != nil {
		t.Fatal(err)
	}

	v, _ := g.Vertex(a)
	v.Props["name"] = "clobbered"
	if got, _ := g.VertexProp(a, "name"); got != "Ada" {
		t.Errorf("vertex prop leaked through exported map: got %q", got)
	}
	e, _ := g.Edge(id)
	e.Props["source"] = "clobbered"
	if e2, _ := g.Edge(id); e2.Props["source"] != "s1" {
		t.Errorf("edge prop leaked through exported map: got %q", e2.Props["source"])
	}
}

// TestScanViewsMatchMaterialized cross-checks the zero-copy scan API against
// the materializing one: same edges, same field values, same order.
func TestScanViewsMatchMaterialized(t *testing.T) {
	g := New()
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	c := g.AddVertex("C")
	if _, err := g.AddEdgeFull(a, b, "x", 0.5, 10, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdgeFull(a, c, "y", 1.5, 20, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdgeFull(c, a, "z", 2.5, 30, nil); err != nil {
		t.Fatal(err)
	}

	var scanned []Edge
	g.ForEachOutScan(a, func(e *EdgeScan) bool {
		scanned = append(scanned, e.Materialize())
		return true
	})
	if len(scanned) != 2 {
		t.Fatalf("ForEachOutScan: want 2 edges, got %d", len(scanned))
	}
	for _, e := range scanned {
		if want, _ := g.Edge(e.ID); !reflect.DeepEqual(e, want) {
			t.Errorf("ForEachOutScan: got %+v, want %+v", e, want)
		}
	}

	scanned = nil
	g.ForEachIncidentScan(a, func(e *EdgeScan) bool {
		scanned = append(scanned, e.Materialize())
		return true
	})
	if len(scanned) != 3 {
		t.Fatalf("ForEachIncidentScan: want 3 edges, got %d", len(scanned))
	}

	total := 0
	g.ScanEdges(func(e *EdgeScan) bool {
		total++
		if e.LabelName() == "x" {
			if got, ok := e.Prop(symtab.Intern("k")); !ok || got != "v" {
				t.Errorf(`Prop("k"): want "v", got %q (ok=%v)`, got, ok)
			}
			if !e.PropEquals(symtab.Intern("k"), "v") {
				t.Error(`PropEquals("k","v"): want true`)
			}
		}
		return true
	})
	if total != 3 {
		t.Errorf("ScanEdges visited %d edges, want 3", total)
	}
}
