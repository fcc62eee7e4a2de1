package pathsearch

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"nous/internal/graph"
)

// plantedGraph builds the C4 evaluation scenario: a 3-hop on-topic path
// src→a→b→dst (all drone-topic) and a 2-hop off-topic shortcut src→hub→dst
// through a high-degree finance hub.
//
// Topic space: [drone, finance].
func plantedGraph() (g *graph.Graph, src, dst, a, b, hub graph.VertexID, topicOf map[graph.VertexID][]float64) {
	g = graph.New()
	src = g.AddVertex("Company", "")
	dst = g.AddVertex("Company", "")
	a = g.AddVertex("Company", "")
	b = g.AddVertex("Company", "")
	hub = g.AddVertex("Company", "")

	mustEdge(g, src, a, "partnersWith")
	mustEdge(g, a, b, "suppliesTo")
	mustEdge(g, b, dst, "acquired")
	mustEdge(g, src, hub, "invests")
	mustEdge(g, hub, dst, "invests")

	topicOf = map[graph.VertexID][]float64{
		src: {0.9, 0.1},
		a:   {0.85, 0.15},
		b:   {0.9, 0.1},
		dst: {0.95, 0.05},
		hub: {0.05, 0.95},
	}
	// hub is high-degree: attach noise spokes
	for i := 0; i < 10; i++ {
		v := g.AddVertex("Company", "")
		mustEdge(g, hub, v, "invests")
		topicOf[v] = []float64{0.5, 0.5}
	}
	return
}

// mapTopics serves topic vectors from a fixed map.
func mapTopics(topicOf map[graph.VertexID][]float64) Topics {
	return func(id graph.VertexID) []float64 { return topicOf[id] }
}

func mustEdge(g *graph.Graph, a, b graph.VertexID, label string) {
	if _, err := g.AddEdge(a, b, label); err != nil {
		panic(err)
	}
}

func TestCoherencePrefersOnTopicPath(t *testing.T) {
	g, src, dst, a, b, hub, topicOf := plantedGraph()
	s := New(g, mapTopics(topicOf))
	paths := s.TopK(src, dst, Options{K: 3, MaxDepth: 4})
	if len(paths) < 2 {
		t.Fatalf("found %d paths, want >= 2", len(paths))
	}
	best := paths[0]
	want := []graph.VertexID{src, a, b, dst}
	if !equalVerts(best.Vertices, want) {
		t.Fatalf("best path = %v (coherence %.4f), want planted %v", best.Vertices, best.Coherence, want)
	}
	// The hub path must rank worse.
	for i, p := range paths {
		if containsVert(p.Vertices, hub) && i == 0 {
			t.Fatal("hub shortcut ranked first")
		}
	}
}

func TestBFSBaselinePrefersShortPath(t *testing.T) {
	g, src, dst, _, _, hub, topicOf := plantedGraph()
	s := New(g, mapTopics(topicOf))
	paths := s.BFSPaths(src, dst, Options{K: 3, MaxDepth: 4})
	if len(paths) == 0 {
		t.Fatal("BFS found nothing")
	}
	if !containsVert(paths[0].Vertices, hub) {
		t.Fatalf("BFS best path should take the 2-hop hub shortcut, got %v", paths[0].Vertices)
	}
	if paths[0].Len() != 2 {
		t.Fatalf("BFS best path length = %d, want 2", paths[0].Len())
	}
}

func TestPredicateConstraint(t *testing.T) {
	g, src, dst, _, _, _, topicOf := plantedGraph()
	s := New(g, mapTopics(topicOf))
	paths := s.TopK(src, dst, Options{K: 5, MaxDepth: 4, Predicate: "acquired"})
	if len(paths) == 0 {
		t.Fatal("no constrained paths")
	}
	for _, p := range paths {
		ok := false
		for _, e := range p.Edges {
			if e.Label == "acquired" {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("path %v violates the predicate constraint", p.Vertices)
		}
	}
}

func TestPathsAreValidAndAcyclic(t *testing.T) {
	g, src, dst, _, _, _, topicOf := plantedGraph()
	s := New(g, mapTopics(topicOf))
	for _, p := range s.TopK(src, dst, Options{K: 5, MaxDepth: 4}) {
		if p.Vertices[0] != src || p.Vertices[len(p.Vertices)-1] != dst {
			t.Fatalf("path endpoints wrong: %v", p.Vertices)
		}
		if len(p.Edges) != len(p.Vertices)-1 {
			t.Fatalf("edge/vertex count mismatch: %v", p)
		}
		seen := map[graph.VertexID]bool{}
		for _, v := range p.Vertices {
			if seen[v] {
				t.Fatalf("cycle in path %v", p.Vertices)
			}
			seen[v] = true
		}
		// each edge must connect consecutive vertices (either direction)
		for i, e := range p.Edges {
			u, v := p.Vertices[i], p.Vertices[i+1]
			if !(e.Src == u && e.Dst == v) && !(e.Src == v && e.Dst == u) {
				t.Fatalf("edge %d does not connect %d-%d: %+v", i, u, v, e)
			}
		}
	}
}

func TestNoPathCases(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("X", "")
	b := g.AddVertex("X", "")
	c := g.AddVertex("X", "") // isolated
	mustEdge(g, a, b, "r")
	s := New(g, nil)
	if got := s.TopK(a, c, Options{}); len(got) != 0 {
		t.Errorf("path to isolated vertex: %v", got)
	}
	if got := s.TopK(a, a, Options{}); len(got) != 0 {
		t.Errorf("self path: %v", got)
	}
	if got := s.TopK(a, 999, Options{}); len(got) != 0 {
		t.Errorf("path to missing vertex: %v", got)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	g := graph.New()
	var ids []graph.VertexID
	for i := 0; i < 6; i++ {
		ids = append(ids, g.AddVertex("X", ""))
	}
	for i := 0; i+1 < len(ids); i++ {
		mustEdge(g, ids[i], ids[i+1], "r")
	}
	s := New(g, nil)
	if got := s.TopK(ids[0], ids[5], Options{MaxDepth: 3}); len(got) != 0 {
		t.Fatalf("found %d paths beyond MaxDepth", len(got))
	}
	if got := s.TopK(ids[0], ids[5], Options{MaxDepth: 5}); len(got) != 1 {
		t.Fatalf("expected exactly the chain path, got %d", len(got))
	}
}

func TestNilTopicsDegradesGracefully(t *testing.T) {
	g, src, dst, _, _, _, _ := plantedGraph()
	s := New(g, nil)
	paths := s.TopK(src, dst, Options{K: 3, MaxDepth: 4})
	if len(paths) == 0 {
		t.Fatal("no paths without topics")
	}
	for _, p := range paths {
		if p.Coherence != 0 {
			t.Fatalf("coherence without topics = %v", p.Coherence)
		}
	}
}

func TestUndirectedTraversal(t *testing.T) {
	// dst→mid edge points backwards; search must still find src→mid→dst.
	g := graph.New()
	src := g.AddVertex("X", "")
	mid := g.AddVertex("X", "")
	dst := g.AddVertex("X", "")
	mustEdge(g, src, mid, "r")
	mustEdge(g, dst, mid, "r")
	s := New(g, nil)
	paths := s.TopK(src, dst, Options{K: 1, MaxDepth: 3})
	if len(paths) != 1 || paths[0].Len() != 2 {
		t.Fatalf("undirected traversal failed: %+v", paths)
	}
}

func equalVerts(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsVert(vs []graph.VertexID, x graph.VertexID) bool {
	for _, v := range vs {
		if v == x {
			return true
		}
	}
	return false
}

func BenchmarkTopKPaths(b *testing.B) {
	g, src, dst, _, _, _, topicOf := plantedGraph()
	s := New(g, mapTopics(topicOf))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(src, dst, Options{K: 3, MaxDepth: 4})
	}
}

// hubGraph is a path-search fixture at the fan-out the served relationship
// query sees: 8-topic vectors, a sparse body of 600 vertices and ten hubs.
// BenchmarkTopKHub's query meets 9, 419, 295 and 285 candidates at its four
// depths (≈ 250 per depth, ≈ 1,000 in all) for a beam of 32, and finds 3
// paths.
func hubGraph() (*graph.Graph, map[graph.VertexID][]float64) {
	rng := rand.New(rand.NewSource(11))
	g := graph.New()
	topicOf := map[graph.VertexID][]float64{}
	ids := make([]graph.VertexID, 600)
	for i := range ids {
		ids[i] = g.AddVertex("Company", "")
		v := make([]float64, 8)
		sum := 0.0
		for k := range v {
			v[k] = rng.ExpFloat64()
			sum += v[k]
		}
		for k := range v {
			v[k] /= sum
		}
		topicOf[ids[i]] = v
	}
	labels := []string{"acquired", "invests", "suppliesTo", "partnersWith"}
	for i, a := range ids {
		degree := 4
		if i%60 == 7 {
			degree = 90 // a hub
		}
		for j := 0; j < degree; j++ {
			if b := ids[rng.Intn(len(ids))]; b != a {
				mustEdge(g, a, b, labels[rng.Intn(len(labels))])
			}
		}
	}
	return g, topicOf
}

// BenchmarkTopKHub times the relationship query's search at served fan-out.
func BenchmarkTopKHub(b *testing.B) {
	g, topicOf := hubGraph()
	s := New(g, mapTopics(topicOf))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(0, 450, Options{})
	}
}

// TestTopKConcurrentReadsEachVectorOnce: searches running beside a graph
// writer, against a source whose vectors keep changing, read each vertex's
// vector once per search, so a search scores every vertex with one vector.
func TestTopKConcurrentReadsEachVectorOnce(t *testing.T) {
	g, topicOf := hubGraph()
	var flipped atomic.Bool
	vector := func(id graph.VertexID) []float64 {
		v := topicOf[id]
		if flipped.Load() {
			v = append([]float64(nil), v...)
			slices.Reverse(v)
		}
		return v
	}
	var stop atomic.Bool
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(3))
		for !stop.Load() {
			mustEdge(g, graph.VertexID(rng.Intn(600)), graph.VertexID(rng.Intn(600)), "partnersWith")
			flipped.Store(!flipped.Load())
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			calls := map[graph.VertexID]int{}
			s := New(g, func(id graph.VertexID) []float64 {
				calls[id]++
				return vector(id)
			})
			for i := 0; i < 10; i++ {
				clear(calls)
				src, dst := graph.VertexID(r*7+i), graph.VertexID(450-r)
				paths := s.TopK(src, dst, Options{})
				for id, n := range calls {
					if n > 1 {
						t.Errorf("search %d->%d read vertex %d's vector %d times", src, dst, id, n)
					}
				}
				for _, p := range paths {
					if p.Vertices[0] != src || p.Vertices[len(p.Vertices)-1] != dst || len(p.Edges) != len(p.Vertices)-1 {
						t.Errorf("malformed path %v", p)
					}
				}
			}
		}(r)
	}
	readers.Wait()
	stop.Store(true)
	writer.Wait()
}

// lessVerts is the lexicographic vertex-sequence order the reference
// implementation (reference_test.go) sorts by; the searcher itself uses
// slices.Compare.
func lessVerts(a, b []graph.VertexID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
