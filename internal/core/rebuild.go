package core

import (
	"fmt"

	"nous/internal/graph"
)

// Rebuild reconstructs what the KG keeps outside the property graph — the
// undated ID set and the temporal edge index — from the graph, and checks
// that every vertex is an entity. It is the second half of recovery:
// internal/persist restores the graph bytes, Rebuild re-derives the indexes
// over them. Facts need no rebuilding: the edge is the only copy of a fact,
// so a recovered graph already holds every one of them (see fact.go).
// Entities need none either: a vertex row holds the entity's type, name and
// aliases, and the graph files it in its entity index as it restores the
// row. The graph is only read, never written, so rebuilding logs nothing to
// an attached WAL, and rebuilding twice derives the same state.
//
// The temporal index is re-scanned from graph state because a snapshot load
// restores edges without emitting the mutations that normally keep it in
// sync. WAL replay emits them (it applies records through
// graph.ApplyReplicated, as a replica does), but only the graph's hooks see
// them: the undated set is derived here, after the graph is whole.
func (kg *KG) Rebuild() error {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	if err := kg.checkNamesLocked(); err != nil {
		return err
	}
	kg.g.ScanEdges(func(e *graph.EdgeScan) bool {
		kg.trackUndatedLocked(e)
		return true
	})
	kg.tix.Rebuild()
	return nil
}

// checkNamesLocked refuses a recovered graph that breaks entity identity:
// an entity is its name, so every vertex must have one and no two may share
// it.
func (kg *KG) checkNamesLocked() error {
	if n := kg.g.NumVertices() - kg.g.NumNamed(); n != 0 {
		return fmt.Errorf("core: %d recovered vertices have no name", n)
	}
	var err error
	seen := make(map[string]graph.VertexID, kg.g.NumNamed())
	kg.g.ScanNamed(func(v *graph.VertexScan) bool {
		if prev, dup := seen[v.Name]; dup {
			err = fmt.Errorf("core: recovered vertices %d and %d share the name %q", min(prev, v.ID), max(prev, v.ID), v.Name)
			return false
		}
		seen[v.Name] = v.ID
		return true
	})
	return err
}
