// Fixture query package: compiling a view or running PageRank here bypasses
// the epoch-memoized cache.
package qa

import "nous/internal/graph"

func compile(g *graph.Graph) *graph.View {
	return graph.Compile(g, nil) // want `outside internal/core`
}

func rank(v *graph.View) []float64 {
	return v.PageRank(0.85, 20, nil) // want `outside internal/analytics`
}

func windowed(g *graph.Graph, keep func(int64, bool) bool) []float64 {
	return graph.Compile(g, nil).PageRank(0.85, 20, keep) // want `outside internal/analytics` `outside internal/core`
}

func degree(g *graph.Graph, v *graph.View) int {
	return g.Degree("ada") + v.NumEdges() // ungated graph and view reads are fine
}

// PageRank with the same name in another package is not the gated one.
func PageRank() int { return 0 }

func localRank() int {
	return PageRank()
}

func batch(v *graph.View) []float64 {
	//nouslint:allow prgate -- offline batch export, not on the query path
	return v.PageRank(0.85, 20, nil)
}
