// Fixture modeled on internal/graph/view.go's Compile: the real compile pass
// copies columns out of each view into an owned record, hands the view to a
// caller-supplied predicate for the duration of the call, and must stay
// clean.
package analytics

import "nous/internal/graph"

type viewEdge struct {
	id       graph.EdgeID
	src, dst graph.VertexID
	ts       int64
	timeless bool
}

func compile(g *graph.Graph, timeless func(*graph.EdgeScan) bool) []viewEdge {
	var edges []viewEdge
	g.ScanEdges(func(e *graph.EdgeScan) bool {
		edges = append(edges, viewEdge{id: e.ID, src: e.Src, dst: e.Dst, ts: e.Timestamp,
			timeless: timeless != nil && timeless(e)})
		return true
	})
	return edges
}

// materialized uses the sanctioned escape hatch: an owned copy may go
// anywhere.
func materialized(g *graph.Graph) []graph.Edge {
	var out []graph.Edge
	g.ScanEdges(func(e *graph.EdgeScan) bool {
		out = append(out, e.Materialize())
		return true
	})
	return out
}
