// Fixture analytics package: the one place allowed to recompute PageRank,
// over views compiled by the KG.
package analytics

import (
	"nous/internal/core"
	"nous/internal/graph"
)

type Cache struct {
	kg *core.KG
	g  *graph.Graph
}

func (c *Cache) Recompute() []float64 {
	v, _ := c.kg.CompileView()
	return v.PageRank(0.85, 20, nil) // allowed: this is the memoization point
}

func (c *Cache) torn() *graph.View {
	return graph.Compile(c.g, nil) // want `graph.Compile outside internal/core`
}
