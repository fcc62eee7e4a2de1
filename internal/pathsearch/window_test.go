package pathsearch

import (
	"math"
	"reflect"
	"testing"

	"nous/internal/graph"
	"nous/internal/temporal"
)

// windowedGraph plants two src→dst routes: one through curated edges (no
// meaningful timestamp) and one through extracted edges dated ts=100.
func windowedGraph(t *testing.T) (*graph.Graph, graph.VertexID, graph.VertexID) {
	t.Helper()
	g := graph.New()
	src := g.AddVertex("Company", "")
	dst := g.AddVertex("Company", "")
	mid1 := g.AddVertex("Company", "")
	mid2 := g.AddVertex("Company", "")
	mustEdge := func(a, b graph.VertexID, label string, ts int64, curated bool) {
		t.Helper()
		if _, err := g.AddEdges([]graph.EdgeSpec{{Src: a, Dst: b, Label: label, Weight: 1, Timestamp: ts,
			Row: graph.FactRow{Curated: curated}}}); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(src, mid1, "partnersWith", -62135596800, true)
	mustEdge(mid1, dst, "suppliesTo", -62135596800, true)
	mustEdge(src, mid2, "acquired", 100, false)
	mustEdge(mid2, dst, "acquired", 100, false)
	return g, src, dst
}

func TestTopKFullRangeWindowByteIdentical(t *testing.T) {
	g, src, dst := windowedGraph(t)
	s := New(g, nil)
	plain := s.TopK(src, dst, Options{K: 10, MaxDepth: 3})
	all := s.TopK(src, dst, Options{K: 10, MaxDepth: 3, Window: temporal.All()})
	wide := s.TopK(src, dst, Options{K: 10, MaxDepth: 3,
		Window: temporal.Window{Since: math.MinInt64 + 1, Until: math.MaxInt64 - 1}})
	if !reflect.DeepEqual(plain, all) {
		t.Fatalf("All window diverges:\n%+v\nvs\n%+v", plain, all)
	}
	if !reflect.DeepEqual(plain, wide) {
		t.Fatalf("wide bounded window diverges:\n%+v\nvs\n%+v", plain, wide)
	}
	if bp := s.BFSPaths(src, dst, Options{K: 10, MaxDepth: 3}); !reflect.DeepEqual(bp,
		s.BFSPaths(src, dst, Options{K: 10, MaxDepth: 3, Window: temporal.All()})) {
		t.Fatal("BFS full-range window diverges")
	}
}

func TestTopKWindowFiltersExtractedEdges(t *testing.T) {
	g, src, dst := windowedGraph(t)
	s := New(g, nil)
	// A window excluding ts=100 sees only the curated route.
	w := temporal.Window{Since: 200, Until: 300}
	paths := s.TopK(src, dst, Options{K: 10, MaxDepth: 3, Window: w})
	if len(paths) != 1 {
		t.Fatalf("paths in empty extracted window = %d, want 1 (curated)", len(paths))
	}
	for _, e := range paths[0].Edges {
		if !e.Row.Curated {
			t.Fatalf("extracted edge leaked into window: %+v", e)
		}
	}
	// A window containing ts=100 sees both routes.
	w = temporal.Window{Since: 50, Until: 150}
	if paths := s.TopK(src, dst, Options{K: 10, MaxDepth: 3, Window: w}); len(paths) != 2 {
		t.Fatalf("paths in covering window = %d, want 2", len(paths))
	}
}
