package core

import (
	"fmt"

	"nous/internal/graph"
)

// ApplyReplicated applies one leader-authored mutation to a follower KG: the
// graph mutation goes through graph.ApplyReplicated (which adopts the
// leader's epoch stamp, files vertex rows in the graph's entity index and
// feeds the attached temporal index), and with it every fact it carries —
// the edge is the fact. The one thing the KG keeps outside the graph, the
// undated set, is maintained incrementally with the derivation Rebuild
// uses on a full scan. Fact-level listeners see FactAdded/FactEvicted
// exactly as they would on a leader, so the miner and the trend table stay
// live on a replica.
//
// Duplicate delivery (a resumed stream re-sending applied records) converges:
// adds of known facts and removes of unknown ones are no-ops. A new vertex
// that reuses another vertex's name is refused, as recovery refuses it.
func (kg *KG) ApplyReplicated(m graph.Mutation) error {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	switch m.Kind {
	case graph.MutAddEdges:
		return kg.replicateEdgesLocked(m)
	case graph.MutRemoveEdge:
		// Decode the eviction payload while the edge still exists.
		f, ok := kg.factLocked(m.EdgeID)
		if err := kg.g.ApplyReplicated(m); err != nil {
			return err
		}
		if ok {
			delete(kg.undated, m.EdgeID)
			kg.notifyLocked(Event{Kind: FactEvicted, Fact: f})
		}
		return nil
	case graph.MutAddVertex:
		if v := m.Vertex; v.Name != "" {
			if id, ok := kg.g.Named(v.Name); ok && id != v.ID {
				return fmt.Errorf("core: replicated vertex %d reuses the name %q of vertex %d", v.ID, v.Name, id)
			}
		}
	}
	return kg.g.ApplyReplicated(m)
}

// replicateEdgesLocked applies a replicated edge batch and announces the
// facts it added. Edges the graph already held (duplicate delivery) are
// skipped without an event.
func (kg *KG) replicateEdgesLocked(m graph.Mutation) error {
	fresh := make([]graph.EdgeID, 0, len(m.Edges))
	for _, e := range m.Edges {
		_, ok1 := kg.g.VertexName(e.Src)
		_, ok2 := kg.g.VertexName(e.Dst)
		if !ok1 || !ok2 {
			return fmt.Errorf("core: replicated edge %d references unnamed vertices (%d -> %d)", e.ID, e.Src, e.Dst)
		}
		if !kg.g.ScanEdge(e.ID, func(*graph.EdgeScan) {}) {
			fresh = append(fresh, e.ID)
		}
	}
	if err := kg.g.ApplyReplicated(m); err != nil {
		return err
	}
	for _, id := range fresh {
		var f Fact
		kg.g.ScanEdge(id, func(e *graph.EdgeScan) {
			kg.trackUndatedLocked(e)
			f = decode(e)
		})
		kg.notifyLocked(Event{Kind: FactAdded, Fact: f}) // listeners run outside the graph lock
	}
	return nil
}
