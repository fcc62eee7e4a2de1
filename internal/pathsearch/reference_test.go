package pathsearch

import (
	"reflect"
	"sort"
	"testing"

	"nous/internal/graph"
)

// This file pins the allocation-light linked-node search to the seed
// implementation's exact semantics: refPartial/refTopK/refBFS reproduce the
// original per-expansion deep-copy algorithm verbatim, and the tests demand
// byte-identical results on deterministic fixtures.

type refPartial struct {
	verts   []graph.VertexID
	edges   []graph.Edge
	visited map[graph.VertexID]bool
	divSum  float64
}

// refDivergence is the references' divergence: both vectors read straight
// from the searcher's source, with no per-search memo.
func (s *Searcher) refDivergence(a, b graph.VertexID) float64 {
	if s.topics == nil {
		return 0
	}
	return divergence(s.topics(a), s.topics(b))
}

func (s *Searcher) refTopK(src, dst graph.VertexID, opt Options) []Path {
	opt = opt.withDefaults()
	if !s.g.HasVertex(src) || !s.g.HasVertex(dst) || src == dst {
		return nil
	}
	start := refPartial{
		verts:   []graph.VertexID{src},
		visited: map[graph.VertexID]bool{src: true},
	}
	frontier := []refPartial{start}
	var found []Path
	seen := map[string]bool{}
	for depth := 0; depth < opt.MaxDepth && len(frontier) > 0; depth++ {
		type scoredRef struct {
			p         refPartial
			lookahead float64
		}
		var next []scoredRef
		for _, p := range frontier {
			cur := p.verts[len(p.verts)-1]
			for _, e := range incidentEdges(s.g, cur) {
				nb := e.Dst
				if nb == cur {
					nb = e.Src
				}
				if p.visited[nb] {
					continue
				}
				step := s.refDivergence(cur, nb)
				np := refPartial{
					verts:   append(append([]graph.VertexID{}, p.verts...), nb),
					edges:   append(append([]graph.Edge{}, p.edges...), e),
					visited: map[graph.VertexID]bool{},
					divSum:  p.divSum + step,
				}
				for v := range p.visited {
					np.visited[v] = true
				}
				np.visited[nb] = true
				if nb == dst {
					if opt.Predicate == "" || refHasLabel(np.edges, opt.Predicate) {
						path := Path{Vertices: np.verts, Edges: np.edges,
							Coherence: np.divSum / float64(len(np.edges))}
						k := pathKey(path)
						if !seen[k] {
							seen[k] = true
							found = append(found, path)
						}
					}
					continue
				}
				next = append(next, scoredRef{p: np, lookahead: np.divSum + s.refDivergence(nb, dst)})
			}
		}
		sort.SliceStable(next, func(i, j int) bool {
			if next[i].lookahead != next[j].lookahead {
				return next[i].lookahead < next[j].lookahead
			}
			return lessVerts(next[i].p.verts, next[j].p.verts)
		})
		if len(next) > opt.Beam {
			next = next[:opt.Beam]
		}
		frontier = frontier[:0]
		for _, sc := range next {
			frontier = append(frontier, sc.p)
		}
	}
	sort.SliceStable(found, func(i, j int) bool {
		if found[i].Coherence != found[j].Coherence {
			return found[i].Coherence < found[j].Coherence
		}
		if len(found[i].Edges) != len(found[j].Edges) {
			return len(found[i].Edges) < len(found[j].Edges)
		}
		return lessVerts(found[i].Vertices, found[j].Vertices)
	})
	if len(found) > opt.K {
		found = found[:opt.K]
	}
	return found
}

func (s *Searcher) refBFS(src, dst graph.VertexID, opt Options) []Path {
	opt = opt.withDefaults()
	if !s.g.HasVertex(src) || !s.g.HasVertex(dst) || src == dst {
		return nil
	}
	var found []Path
	seen := map[string]bool{}
	frontier := []refPartial{{
		verts:   []graph.VertexID{src},
		visited: map[graph.VertexID]bool{src: true},
	}}
	for depth := 0; depth < opt.MaxDepth && len(frontier) > 0; depth++ {
		var next []refPartial
		for _, p := range frontier {
			cur := p.verts[len(p.verts)-1]
			for _, e := range incidentEdges(s.g, cur) {
				nb := e.Dst
				if nb == cur {
					nb = e.Src
				}
				if p.visited[nb] {
					continue
				}
				np := refPartial{
					verts:   append(append([]graph.VertexID{}, p.verts...), nb),
					edges:   append(append([]graph.Edge{}, p.edges...), e),
					visited: map[graph.VertexID]bool{},
					divSum:  p.divSum + s.refDivergence(cur, nb),
				}
				for v := range p.visited {
					np.visited[v] = true
				}
				np.visited[nb] = true
				if nb == dst {
					if opt.Predicate == "" || refHasLabel(np.edges, opt.Predicate) {
						path := Path{Vertices: np.verts, Edges: np.edges,
							Coherence: np.divSum / float64(len(np.edges))}
						k := pathKey(path)
						if !seen[k] {
							seen[k] = true
							found = append(found, path)
						}
					}
					continue
				}
				next = append(next, np)
			}
		}
		sort.SliceStable(next, func(i, j int) bool { return lessVerts(next[i].verts, next[j].verts) })
		if len(next) > opt.Beam*4 {
			next = next[:opt.Beam*4]
		}
		frontier = next
		if len(found) >= opt.K {
			break
		}
	}
	sort.SliceStable(found, func(i, j int) bool {
		if len(found[i].Edges) != len(found[j].Edges) {
			return len(found[i].Edges) < len(found[j].Edges)
		}
		return lessVerts(found[i].Vertices, found[j].Vertices)
	})
	if len(found) > opt.K {
		found = found[:opt.K]
	}
	return found
}

func refHasLabel(edges []graph.Edge, label string) bool {
	for _, e := range edges {
		if e.Label == label {
			return true
		}
	}
	return false
}

// randomFixture builds a deterministic dense multigraph with topic vectors
// via a hand-rolled LCG (no global rand dependence).
func randomFixture(nVerts, nEdges int, seed uint64) (*graph.Graph, map[graph.VertexID][]float64) {
	g := graph.New()
	topicOf := map[graph.VertexID][]float64{}
	labels := []string{"acquired", "invests", "suppliesTo", "partnersWith"}
	state := seed
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	ids := make([]graph.VertexID, nVerts)
	for i := range ids {
		ids[i] = g.AddVertex("Company", "")
		a := float64(next(100)) / 100
		topicOf[ids[i]] = []float64{a, 1 - a}
	}
	for i := 0; i < nEdges; i++ {
		a := ids[next(nVerts)]
		b := ids[next(nVerts)]
		if a == b {
			continue
		}
		if _, err := g.AddEdge(a, b, labels[next(len(labels))]); err != nil {
			panic(err)
		}
	}
	return g, topicOf
}

func TestTopKMatchesSeedReference(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"defaults", Options{}},
		{"deep", Options{K: 5, MaxDepth: 6, Beam: 16}},
		{"narrowBeam", Options{K: 10, MaxDepth: 4, Beam: 4}},
		{"predicate", Options{K: 5, MaxDepth: 5, Predicate: "invests"}},
	}
	for _, seed := range []uint64{1, 7, 42} {
		g, topicOf := randomFixture(30, 120, seed)
		s := New(g, mapTopics(topicOf))
		ids := make([]graph.VertexID, 0, 30)
		for i := 0; i < 30; i++ {
			ids = append(ids, graph.VertexID(i))
		}
		for _, tc := range cases {
			for _, pair := range [][2]graph.VertexID{{ids[0], ids[29]}, {ids[3], ids[17]}, {ids[10], ids[5]}} {
				got := s.TopK(pair[0], pair[1], tc.opt)
				want := s.refTopK(pair[0], pair[1], tc.opt)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d case=%s %d->%d:\n got %v\nwant %v", seed, tc.name, pair[0], pair[1], got, want)
				}
			}
		}
	}
	// The planted evaluation fixture too.
	g, src, dst, _, _, _, topicOf := plantedGraph()
	s := New(g, mapTopics(topicOf))
	for _, opt := range []Options{{}, {K: 5, MaxDepth: 4}, {K: 5, MaxDepth: 4, Predicate: "acquired"}} {
		if got, want := s.TopK(src, dst, opt), s.refTopK(src, dst, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("planted fixture diverged:\n got %v\nwant %v", got, want)
		}
	}
}

func TestBFSMatchesSeedReference(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		g, topicOf := randomFixture(25, 100, seed)
		s := New(g, mapTopics(topicOf))
		for _, opt := range []Options{{}, {K: 8, MaxDepth: 5, Beam: 8}, {K: 3, MaxDepth: 4, Predicate: "acquired"}} {
			for _, pair := range [][2]graph.VertexID{{0, 24}, {5, 13}} {
				got := s.BFSPaths(pair[0], pair[1], opt)
				want := s.refBFS(pair[0], pair[1], opt)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d %d->%d:\n got %v\nwant %v", seed, pair[0], pair[1], got, want)
				}
			}
		}
	}
	g, src, dst, _, _, _, topicOf := plantedGraph()
	s := New(g, mapTopics(topicOf))
	if got, want := s.BFSPaths(src, dst, Options{K: 3, MaxDepth: 4}), s.refBFS(src, dst, Options{K: 3, MaxDepth: 4}); !reflect.DeepEqual(got, want) {
		t.Fatalf("planted fixture diverged:\n got %v\nwant %v", got, want)
	}
}

// BenchmarkTopKAllocs quantifies the allocation savings of the linked-node
// beam against the seed's per-expansion deep copies.
func BenchmarkTopKAllocs(b *testing.B) {
	g, topicOf := randomFixture(60, 400, 9)
	s := New(g, mapTopics(topicOf))
	b.Run("linked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.TopK(0, 59, Options{K: 3, MaxDepth: 4})
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.refTopK(0, 59, Options{K: 3, MaxDepth: 4})
		}
	})
}

// incidentEdges materializes the edges incident to id — outgoing first, then
// incoming, each in insertion order — which is the list the references walk.
func incidentEdges(g *graph.Graph, id graph.VertexID) []graph.Edge {
	var out []graph.Edge
	g.ForEachIncidentScan(id, func(e *graph.EdgeScan) bool {
		out = append(out, e.Materialize())
		return true
	})
	return out
}
