// Fixture analytics package: the one place allowed to compile a view and
// recompute PageRank.
package analytics

import "nous/internal/graph"

type Cache struct {
	g *graph.Graph
}

func (c *Cache) Recompute() []float64 {
	return graph.Compile(c.g, nil).PageRank(0.85, 20, nil) // allowed: this is the memoization point
}
