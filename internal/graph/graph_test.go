package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The helpers below read a graph through its scan API the way a consumer
// does, materializing each visited edge.

func collectEdges(scan func(func(*EdgeScan) bool)) []Edge {
	var out []Edge
	scan(func(e *EdgeScan) bool {
		out = append(out, e.Materialize())
		return true
	})
	return out
}

func outEdges(g *Graph, id VertexID) []Edge {
	return collectEdges(func(fn func(*EdgeScan) bool) { g.ForEachOutScan(id, fn) })
}

func inEdges(g *Graph, id VertexID) []Edge {
	return collectEdges(func(fn func(*EdgeScan) bool) { g.ForEachInScan(id, fn) })
}

func incidentEdges(g *Graph, id VertexID) []Edge {
	return collectEdges(func(fn func(*EdgeScan) bool) { g.ForEachIncidentScan(id, fn) })
}

// liveEdgeIDs lists every live edge ID in ascending order.
func liveEdgeIDs(g *Graph) []EdgeID {
	var ids []EdgeID
	g.ScanEdges(func(e *EdgeScan) bool {
		ids = append(ids, e.ID)
		return true
	})
	slices.Sort(ids)
	return ids
}

// countLabel counts the live edges carrying label by scanning every edge.
func countLabel(g *Graph, label string) int {
	n := 0
	g.ScanEdges(func(e *EdgeScan) bool {
		if e.LabelName() == label {
			n++
		}
		return true
	})
	return n
}

func TestAddVertexAssignsDistinctIDs(t *testing.T) {
	g := New()
	a := g.AddVertex("Person")
	b := g.AddVertex("Org")
	if a == b {
		t.Fatalf("expected distinct IDs, got %d twice", a)
	}
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d, want 2", g.NumVertices())
	}
	v, ok := g.Vertex(a)
	if !ok || v.Label != "Person" {
		t.Fatalf("Vertex(%d) = %+v, %v; want Person", a, v, ok)
	}
}

func TestAddEdgeRequiresEndpoints(t *testing.T) {
	g := New()
	a := g.AddVertex("A")
	if _, err := g.AddEdge(a, 999, "rel"); err == nil {
		t.Fatal("expected error for missing destination")
	}
	if _, err := g.AddEdge(999, a, "rel"); err == nil {
		t.Fatal("expected error for missing source")
	}
}

func TestEdgeLookupAndDegree(t *testing.T) {
	g := New()
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	c := g.AddVertex("C")
	e1, err := g.AddEdge(a, b, "knows")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(a, c, "knows"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(b, c, "likes"); err != nil {
		t.Fatal(err)
	}

	if got := len(outEdges(g, a)); got != 2 {
		t.Errorf("out-degree(a) = %d, want 2", got)
	}
	if got := len(inEdges(g, c)); got != 2 {
		t.Errorf("in-degree(c) = %d, want 2", got)
	}
	if got := g.Degree(b); got != 2 {
		t.Errorf("Degree(b) = %d, want 2", got)
	}
	e, ok := g.Edge(e1)
	if !ok || e.Label != "knows" || e.Src != a || e.Dst != b {
		t.Errorf("Edge(e1) = %+v, %v", e, ok)
	}
}

func TestRemoveEdgeCleansIndexes(t *testing.T) {
	g := New()
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	id, _ := g.AddEdge(a, b, "rel")
	if !g.RemoveEdge(id) {
		t.Fatal("RemoveEdge returned false for existing edge")
	}
	if g.RemoveEdge(id) {
		t.Fatal("RemoveEdge returned true for already-removed edge")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if len(outEdges(g, a)) != 0 || len(inEdges(g, b)) != 0 {
		t.Fatal("adjacency not cleaned after removal")
	}
}

// TestFindEdgesFiltersByLabel finds the edges between two vertices the way
// core.KG does: an out-scan filtered by destination and interned label.
func TestFindEdgesFiltersByLabel(t *testing.T) {
	g := New()
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	g.AddEdge(a, b, "x")
	g.AddEdge(a, b, "y")
	find := func(src, dst VertexID, label string) int {
		n := 0
		g.ForEachOutScan(src, func(e *EdgeScan) bool {
			if e.Dst == dst && (label == "" || e.LabelName() == label) {
				n++
			}
			return true
		})
		return n
	}
	if got := find(a, b, "x"); got != 1 {
		t.Errorf("find(x) = %d, want 1", got)
	}
	if got := find(a, b, ""); got != 2 {
		t.Errorf("find(any) = %d, want 2", got)
	}
	if got := find(b, a, ""); got != 0 {
		t.Errorf("find(reverse) = %d, want 0", got)
	}
}

func TestNeighborsUndirectedDistinct(t *testing.T) {
	g := New()
	a := g.AddVertex("A")
	b := g.AddVertex("B")
	c := g.AddVertex("C")
	g.AddEdge(a, b, "r")
	g.AddEdge(b, a, "r") // both directions: still one neighbor
	g.AddEdge(c, a, "r")
	nbs := g.Neighbors(a)
	if len(nbs) != 2 || nbs[0] != b || nbs[1] != c {
		t.Fatalf("Neighbors(a) = %v, want [%d %d]", nbs, b, c)
	}
}

func TestVertexAndEdgeProps(t *testing.T) {
	g := New()
	a := g.AddVertexWithProps("A", map[string]string{"name": "DJI"})
	if v, _ := g.Vertex(a); v.Props["name"] != "DJI" {
		t.Fatalf("props not stored: %+v", v)
	}
	if !g.SetVertexProp(a, "hq", "Shenzhen") {
		t.Fatal("SetVertexProp failed")
	}
	if got, ok := g.VertexProp(a, "hq"); !ok || got != "Shenzhen" {
		t.Fatalf("VertexProp = %q, %v", got, ok)
	}
	b := g.AddVertex("B")
	id, _ := g.AddEdgeFull(a, b, "rel", 0.5, 1234, map[string]string{"src": "wsj"})
	e, _ := g.Edge(id)
	if e.Weight != 0.5 || e.Timestamp != 1234 || e.Props["src"] != "wsj" {
		t.Fatalf("edge fields lost: %+v", e)
	}
	if !g.SetEdgeWeight(id, 0.9) {
		t.Fatal("SetEdgeWeight failed")
	}
	if e, _ := g.Edge(id); e.Weight != 0.9 {
		t.Fatalf("weight not updated: %v", e.Weight)
	}
}

func TestVertexCopiesAreIsolated(t *testing.T) {
	g := New()
	a := g.AddVertexWithProps("A", map[string]string{"k": "v"})
	v, _ := g.Vertex(a)
	v.Props["k"] = "mutated"
	v2, _ := g.Vertex(a)
	if v2.Props["k"] != "v" {
		t.Fatal("Vertex returned a shared props map")
	}
}

// Property: after any sequence of adds and removes, sum of out-degrees ==
// sum of in-degrees == the scanned per-label counts == NumEdges.
func TestDegreeInvariantQuick(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var vids []VertexID
		var eids []EdgeID
		for i := 0; i < 8; i++ {
			vids = append(vids, g.AddVertex("T"))
		}
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // add edge
				s := vids[rng.Intn(len(vids))]
				d := vids[rng.Intn(len(vids))]
				id, err := g.AddEdge(s, d, []string{"r", "q"}[rng.Intn(2)])
				if err != nil {
					return false
				}
				eids = append(eids, id)
			case 2: // remove random known edge (may already be gone)
				if len(eids) > 0 {
					g.RemoveEdge(eids[rng.Intn(len(eids))])
				}
			}
		}
		sumOut, sumIn := 0, 0
		for _, v := range vids {
			sumOut += len(outEdges(g, v))
			sumIn += len(inEdges(g, v))
		}
		n := g.NumEdges()
		return sumOut == n && sumIn == n && countLabel(g, "r")+countLabel(g, "q") == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := New()
	n := 20
	var ids []VertexID
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddVertex("V"))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		g.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)], "r")
	}
	sum := 0.0
	Compile(g, nil).PageRank(0.85, 30, nil).Each(func(_ VertexID, r float64) {
		if r < 0 {
			t.Fatalf("negative rank %v", r)
		}
		sum += r
	})
	if math.Abs(sum-1.0) > 1e-6 {
		t.Fatalf("PageRank sum = %v, want ~1", sum)
	}
}

func TestPageRankFavorsSink(t *testing.T) {
	// star: everyone points at hub; hub should have max rank.
	g := New()
	hub := g.AddVertex("hub")
	for i := 0; i < 10; i++ {
		v := g.AddVertex("leaf")
		g.AddEdge(v, hub, "r")
	}
	pr := Compile(g, nil).PageRank(0.85, 25, nil)
	pr.Each(func(id VertexID, r float64) {
		if id != hub && r >= pr.At(hub) {
			t.Fatalf("leaf %d rank %v >= hub rank %v", id, r, pr.At(hub))
		}
	})
}

func TestPageRankEmptyGraph(t *testing.T) {
	if got := Compile(New(), nil).PageRank(0.85, 10, nil); got.Len() != 0 {
		t.Fatalf("PageRank on empty graph scored %d vertices", got.Len())
	}
}

func BenchmarkAddEdge(b *testing.B) {
	g := New()
	var ids []VertexID
	for i := 0; i < 1000; i++ {
		ids = append(ids, g.AddVertex("V"))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], "r")
	}
}

func BenchmarkAddEdgesBatch(b *testing.B) {
	g := New()
	var ids []VertexID
	for i := 0; i < 1000; i++ {
		ids = append(ids, g.AddVertex("V"))
	}
	rng := rand.New(rand.NewSource(1))
	const batch = 64
	specs := make([]EdgeSpec, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := range specs {
			specs[j] = EdgeSpec{Src: ids[rng.Intn(len(ids))], Dst: ids[rng.Intn(len(ids))], Label: "r", Weight: 1}
		}
		if _, err := g.AddEdges(specs); err != nil {
			b.Fatal(err)
		}
	}
}
