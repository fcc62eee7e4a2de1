package graph

import (
	"reflect"
	"testing"
)

// TestEmptyPropsExportNil pins the export-path allocation contract: vertices
// without aliases materialize with Aliases == nil on every read path, never
// an allocated empty slice, and an edge added with the zero fact row reads
// back the zero row.
func TestEmptyPropsExportNil(t *testing.T) {
	g := New()
	a := g.AddVertex("Person", "a")
	b := g.AddVertex("Person", "")
	id, err := addEdge(g, a, b, "knows", 1, 100, FactRow{})
	if err != nil {
		t.Fatal(err)
	}

	if v, ok := g.Vertex(a); !ok || v.Aliases != nil {
		t.Errorf("Vertex(a).Aliases: want nil, got %#v", v.Aliases)
	}
	if e, ok := g.Edge(id); !ok || e.Row != (FactRow{}) {
		t.Errorf("Edge(id).Row: want zero, got %#v", e.Row)
	}
	snap := g.Snapshot()
	for _, v := range snap.Vertices {
		if v.Aliases != nil {
			t.Errorf("snapshot vertex aliases: want nil, got %#v", v.Aliases)
		}
	}
	for _, e := range snap.Edges {
		if e.Row != (FactRow{}) {
			t.Errorf("snapshot edge row: want zero, got %#v", e.Row)
		}
	}
	g.ForEachOutScan(a, func(e *EdgeScan) bool {
		if r := e.Row(); r != (FactRow{}) {
			t.Errorf("scan row: want zero, got %#v", r)
		}
		return true
	})
}

// TestExportedPropsAreCopies pins that the alias slices a snapshot and a
// replicated vertex record hand out are owned by their holders: mutating
// them must not leak into the graph, nor the graph's later appends into them.
func TestExportedPropsAreCopies(t *testing.T) {
	g := New()
	a := g.AddVertex("Person", "Ada")
	g.AddVertexAlias(a, "ada")
	snap := g.Snapshot().Vertices[a]
	snap.Aliases[0] = "clobbered"
	g.AddVertexAlias(a, "countess")
	if v, _ := g.Vertex(a); !reflect.DeepEqual(v.Aliases, []string{"ada", "countess"}) {
		t.Errorf("snapshot alias slice leaked into the graph: %v", v.Aliases)
	}
	if len(snap.Aliases) != 1 {
		t.Errorf("graph append leaked into the snapshot: %v", snap.Aliases)
	}

	r := New()
	aliases := []string{"ada"}
	if err := r.ApplyReplicated(Mutation{Kind: MutAddVertex, Epoch: 1,
		Vertex: Vertex{ID: 0, Label: "Person", Name: "Ada", Aliases: aliases}}); err != nil {
		t.Fatal(err)
	}
	aliases[0] = "clobbered"
	if v, _ := r.Vertex(0); v.Aliases[0] != "ada" {
		t.Errorf("replicated record's alias slice leaked into the graph: %v", v.Aliases)
	}
}

// TestScanViewsMatchMaterialized cross-checks the zero-copy scan API against
// the materializing one: same edges, same field values, same order.
func TestScanViewsMatchMaterialized(t *testing.T) {
	g := New()
	a := g.AddVertex("A", "")
	b := g.AddVertex("B", "")
	c := g.AddVertex("C", "")
	row := FactRow{Source: "s", Doc: "v", SType: "A", Curated: true}
	if _, err := addEdge(g, a, b, "x", 0.5, 10, row); err != nil {
		t.Fatal(err)
	}
	if _, err := addEdge(g, a, c, "y", 1.5, 20, FactRow{}); err != nil {
		t.Fatal(err)
	}
	if _, err := addEdge(g, c, a, "z", 2.5, 30, FactRow{}); err != nil {
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
		if e.LabelName() == "x" && (e.Row() != row || !e.Curated()) {
			t.Errorf("Row: want %+v, got %+v (Curated %v)", row, e.Row(), e.Curated())
		}
		return true
	})
	if total != 3 {
		t.Errorf("ScanEdges visited %d edges, want 3", total)
	}
}
