// Fixture graph package exposing the gated PageRank entry points.
package graph

type Graph struct{}

type View struct{}

func Compile(g *Graph, timeless func(string) bool) *View { return &View{} }

func (v *View) PageRank(damping float64, iters int, keep func(ts int64, timeless bool) bool) []float64 {
	return nil
}

func (v *View) NumEdges() int { return 0 }

func (g *Graph) Degree(name string) int { return 0 }
