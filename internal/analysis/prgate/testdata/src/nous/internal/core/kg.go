// Fixture core package: the one place allowed to compile a view, under the
// KG lock.
package core

import "nous/internal/graph"

type KG struct {
	g *graph.Graph
}

func (kg *KG) CompileView() (*graph.View, uint64) {
	return graph.Compile(kg.g, nil), 0 // allowed: the exact epoch cut
}

func (kg *KG) rank() []float64 {
	return graph.Compile(kg.g, nil).PageRank(0.85, 20, nil) // want `graph.PageRank outside internal/analytics`
}
