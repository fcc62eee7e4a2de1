package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// syntheticGraph builds a random multigraph with edges/5 vertices and edge
// timestamps 0..edges-1 in insertion order.
func syntheticGraph(tb testing.TB, edges int) *Graph {
	tb.Helper()
	g := New()
	ids := make([]VertexID, max(edges/5, 2))
	for i := range ids {
		ids[i] = g.AddVertex("V", "")
	}
	rng := rand.New(rand.NewSource(11))
	specs := make([]EdgeSpec, edges)
	for i := range specs {
		// Destinations are skewed toward a tenth of the vertices.
		specs[i] = EdgeSpec{Src: ids[rng.Intn(len(ids))], Dst: ids[rng.Intn(len(ids)/(1+9*rng.Intn(2)))],
			Label: "r", Weight: 1, Timestamp: int64(i)}
	}
	if _, err := g.AddEdges(specs); err != nil {
		tb.Fatal(err)
	}
	return g
}

// twoThirds is the window the kernel tests and benchmarks run under.
func twoThirds(ts int64, _ bool) bool { return ts%3 != 0 }

func sameBits(t *testing.T, what string, got, want *Ranks) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d ranks, want %d", what, got.Len(), want.Len())
	}
	want.Each(func(id VertexID, r float64) {
		if g := got.At(id); math.Float64bits(g) != math.Float64bits(r) {
			t.Fatalf("%s: rank of vertex %d = %x, want %x", what, id, math.Float64bits(g), math.Float64bits(r))
		}
	})
}

// TestPageRankBitReproducible pins "equal epochs serve byte-identical reads"
// at its source: recompiling and recomputing importance over an unchanged
// graph gives bitwise-equal ranks on every run, and the serial kernel
// (GOMAXPROCS 1) and the chunked one (GOMAXPROCS ≥ 4, the graph is past
// parallelEdges) agree bit for bit.
func TestPageRankBitReproducible(t *testing.T) {
	g := syntheticGraph(t, 2*parallelEdges)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, keep := range map[string]func(int64, bool) bool{"all": nil, "windowed": twoThirds} {
		runtime.GOMAXPROCS(1)
		want := Compile(g, nil).PageRank(0.85, 20, keep)
		for _, procs := range []int{1, max(4, runtime.NumCPU())} {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < 25; i++ {
				sameBits(t, fmt.Sprintf("%s, GOMAXPROCS %d, run %d", name, procs, i),
					Compile(g, nil).PageRank(0.85, 20, keep), want)
			}
		}
	}
}

// TestViewOrderIgnoresInsertionOrder pins the canonical edge order: two
// graphs holding the same edges under the same IDs, inserted in different
// orders (so in different slab slots), compile to views with bitwise-equal
// ranks.
func TestViewOrderIgnoresInsertionOrder(t *testing.T) {
	g := syntheticGraph(t, 3000)
	var edges []Edge
	for _, id := range liveEdgeIDs(g) {
		e, _ := g.Edge(id)
		edges = append(edges, e)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	shuffled := New()
	for _, id := range vertexIDs(g) {
		v, _ := g.Vertex(id)
		if err := shuffled.ApplyReplicated(Mutation{Kind: MutAddVertex, Epoch: shuffled.Epoch() + 1, Vertex: v}); err != nil {
			t.Fatal(err)
		}
	}
	shuffled.AdvanceIDs(0, g.nextEdge) // the edges arrive out of ID order
	for _, e := range edges {
		if err := shuffled.ApplyReplicated(Mutation{Kind: MutAddEdges, Epoch: shuffled.Epoch() + 1, Edges: []Edge{e}}); err != nil {
			t.Fatal(err)
		}
	}
	for name, keep := range map[string]func(int64, bool) bool{"all": nil, "windowed": twoThirds} {
		sameBits(t, name, Compile(shuffled, nil).PageRank(0.85, 20, keep), Compile(g, nil).PageRank(0.85, 20, keep))
	}
}

// TestViewPageRankAllocs pins the kernel's allocations on a compiled view to
// a constant — the result, the compacted window and the scratch vectors —
// whatever the iteration count and the edge count.
func TestViewPageRankAllocs(t *testing.T) {
	const maxAllocs = 8
	for _, edges := range []int{1000, 20000} {
		v := Compile(syntheticGraph(t, edges), nil)
		for _, iters := range []int{1, 20, 60} {
			if got := testing.AllocsPerRun(5, func() { v.PageRank(0.85, iters, twoThirds) }); got > maxAllocs {
				t.Errorf("%d edges, %d iterations: %v allocations per windowed recompute, want <= %d", edges, iters, got, maxAllocs)
			}
		}
	}
}

var benchSizes = []int{1_000, 10_000, 100_000, 1_000_000}

func BenchmarkViewCompile(b *testing.B) {
	for _, edges := range benchSizes {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			g := syntheticGraph(b, edges)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Compile(g, nil)
			}
		})
	}
}

// BenchmarkViewPageRank is one windowed recompute (20 iterations) on a
// compiled view. Run with -cpu 1,2 to compare the serial and chunked kernels:
// parallelEdges was chosen from it.
func BenchmarkViewPageRank(b *testing.B) {
	for _, edges := range benchSizes {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			v := Compile(syntheticGraph(b, edges), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.PageRank(0.85, 20, twoThirds)
			}
		})
	}
}
