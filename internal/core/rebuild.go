package core

import (
	"fmt"

	"nous/internal/graph"
)

// Rebuild reconstructs what the KG keeps outside the property graph — the
// entity name maps, the alias index, the undated ID set and the temporal
// edge index — from the graph. It is the second half of recovery:
// internal/persist restores the graph bytes, Rebuild re-derives the indexes
// over them. Facts need no rebuilding: the edge is the only copy of a fact,
// so a recovered graph already holds every one of them (see fact.go). The KG
// must be freshly constructed (no entities or facts indexed); the graph is
// only read, never written, so rebuilding logs nothing to an attached WAL.
//
// Names and aliases live on the vertices' rows. The temporal index is
// re-scanned from graph state because a snapshot load restores edges without
// emitting the mutations that normally keep it in sync. WAL replay emits
// them (it applies records through graph.ApplyReplicated, as a replica
// does), but only the graph's hooks see them: the KG's own indexes are
// derived here, after the graph is whole.
func (kg *KG) Rebuild() error {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	if len(kg.byName) != 0 {
		return fmt.Errorf("core: Rebuild requires a fresh KG (%d entities present)", len(kg.byName))
	}
	for _, id := range kg.g.VertexIDs() {
		v, ok := kg.g.Vertex(id)
		if !ok {
			continue
		}
		if v.Name == "" {
			return fmt.Errorf("core: recovered vertex %d has no name", id)
		}
		if prev, dup := kg.byName[v.Name]; dup {
			return fmt.Errorf("core: recovered vertices %d and %d share the name %q", prev, id, v.Name)
		}
		kg.indexVertexLocked(v)
	}
	kg.g.ScanEdges(func(e *graph.EdgeScan) bool {
		kg.trackUndatedLocked(e)
		return true
	})
	kg.tix.Rebuild()
	return nil
}

// indexVertexLocked registers a named vertex, with the alias set mirrored on
// it, in the entity indexes.
func (kg *KG) indexVertexLocked(v graph.Vertex) {
	kg.byName[v.Name] = v.ID
	kg.names[v.ID] = v.Name
	kg.registerAliasLocked(v.Name, v.Name)
	for _, a := range v.Aliases {
		kg.registerAliasLocked(a, v.Name)
	}
}
