package core

import (
	"fmt"

	"nous/internal/graph"
)

// ApplyReplicated applies one leader-authored mutation to a follower KG: the
// graph mutation goes through graph.ApplyReplicated (which adopts the
// leader's epoch stamp and feeds the attached temporal index), and with it
// every fact it carries — the edge is the fact. What the KG keeps outside
// the graph — entity name maps, alias index, the undated set — is maintained
// incrementally with the same derivations Rebuild uses on a full scan.
// Fact-level listeners see FactAdded/FactEvicted exactly as they would on a
// leader, so the miner and the trend table stay live on a replica.
//
// Duplicate delivery (a resumed stream re-sending applied records) converges:
// adds of known facts and removes of unknown ones are no-ops.
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
	}
	if err := kg.g.ApplyReplicated(m); err != nil {
		return err
	}
	switch m.Kind {
	case graph.MutAddVertex:
		// A vertex whose name is already bound (duplicate delivery, or the
		// bootstrap snapshot already held it) is left alone; a nameless
		// vertex has no entity identity and is indexed by the graph layer
		// only.
		if name := m.Vertex.Name; name != "" {
			if _, dup := kg.byName[name]; !dup {
				kg.indexVertexLocked(m.Vertex)
			}
		}
	case graph.MutAddVertexAlias:
		if name, ok := kg.names[m.VertexID]; ok {
			kg.registerAliasLocked(m.Alias, name)
		}
	}
	return nil
}

// replicateEdgesLocked applies a replicated edge batch and announces the
// facts it added. Edges the graph already held (duplicate delivery) are
// skipped without an event.
func (kg *KG) replicateEdgesLocked(m graph.Mutation) error {
	fresh := make([]graph.EdgeID, 0, len(m.Edges))
	for _, e := range m.Edges {
		_, ok1 := kg.names[e.Src]
		_, ok2 := kg.names[e.Dst]
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
			f = kg.decodeLocked(e)
		})
		kg.notifyLocked(Event{Kind: FactAdded, Fact: f}) // listeners run outside the graph lock
	}
	return nil
}
