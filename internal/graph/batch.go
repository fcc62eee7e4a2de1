package graph

import "fmt"

// EdgeSpec describes one edge for batch insertion via AddEdges.
type EdgeSpec struct {
	Src, Dst  VertexID
	Label     string
	Weight    float64
	Timestamp int64
	Row       FactRow
}

// AddEdges inserts a batch of edges under one write-lock acquisition and
// delivers them as one MutAddEdges record — the bulk-write path for
// streaming ingestion. Edge IDs are assigned contiguously in batch order.
//
// The batch is atomic with respect to validation: if any endpoint is
// missing, an error is returned and no edge is inserted.
func (g *Graph) AddEdges(specs []EdgeSpec) ([]EdgeID, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range specs {
		for _, v := range [2]VertexID{specs[i].Src, specs[i].Dst} {
			if !g.row(v).live {
				return nil, fmt.Errorf("graph: add edges: endpoint vertex %d does not exist", v)
			}
		}
	}
	ids := make([]EdgeID, len(specs))
	var recs []Edge
	if len(g.hooks) > 0 {
		recs = make([]Edge, len(specs))
	}
	for i := range specs {
		sp := &specs[i]
		id := EdgeID(g.nextEdge)
		g.nextEdge++
		ids[i] = id
		g.insertEdgeLocked(id, sp.Src, sp.Dst, sp.Label, sp.Weight, sp.Timestamp, &sp.Row)
		if recs != nil {
			recs[i] = Edge{ID: id, Src: sp.Src, Dst: sp.Dst, Label: sp.Label,
				Weight: sp.Weight, Timestamp: sp.Timestamp, Row: sp.Row}
		}
	}
	g.commitLocked(Mutation{Kind: MutAddEdges, Edges: recs}, false)
	return ids, nil
}
