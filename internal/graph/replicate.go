package graph

import (
	"fmt"
	"slices"

	"nous/internal/graph/symtab"
)

// Replicated apply
//
// A replication follower tails its leader's WAL and applies each record to
// its own graph, and recovery replays a store's own WAL the same way. That
// path needs a hybrid of the two write APIs:
//
//   - like the Restore API, it takes explicit IDs, is idempotent under
//     duplicate delivery (at-least-once streams re-send records), and never
//     mints epochs of its own — the follower adopts the leader's stamps so
//     both sides agree on what "epoch N" means;
//   - like the live mutators, it emits every applied record to the mutation
//     hooks, so the temporal index and epoch-keyed caches stay in sync
//     without a rebuild.
//
// Each record is applied by the same code as its live mutator, under the
// write lock, and committed through commitLocked with the leader's stamp.
// Re-delivered records whose effect is already present are skipped without
// emitting, which keeps duplicate delivery invisible to subscribers too.

// ApplyReplicated applies one logged mutation record, from a replication
// leader or from WAL replay: restore semantics (explicit IDs, idempotent, tolerant of records
// whose target predates the bootstrap snapshot) with live hook delivery and
// leader-epoch adoption. It is safe for concurrent use with readers; a
// follower must not interleave it with local mutators.
func (g *Graph) ApplyReplicated(m Mutation) error {
	switch m.Kind {
	case MutAddVertex:
		return g.applyVertexReplicated(m)
	case MutAddEdges:
		return g.applyAddEdgesReplicated(m)
	case MutRemoveEdge:
		g.removeEdge(m, true)
	case MutSetVertexLabel:
		g.setVertexLabel(m, true)
	case MutAddVertexAlias:
		g.addVertexAlias(m, true)
	default:
		return fmt.Errorf("graph: apply replicated: unknown mutation kind %d", m.Kind)
	}
	return nil
}

// applyVertexReplicated inserts a vertex with its leader-assigned ID. A
// vertex already present (a re-delivered record, or one the bootstrap
// snapshot held) is left as it is and nothing is emitted: its later relabel
// and aliases are already on it, and the stream never shrinks a vertex row.
//
// The leader hands out vertex IDs one at a time, so a record names at most
// the ID the allocator stands at. An ID beyond it is refused before anything
// is sized: it can only come from a corrupt or forged record, and it would
// size the vertex rows to the ID.
func (g *Graph) applyVertexReplicated(m Mutation) error {
	v := m.Vertex
	row := vertexRow{label: symtab.Intern(v.Label), name: v.Name, aliases: slices.Clone(v.Aliases)}
	hs := rowHashes(&row)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !vertexFits(v.ID, g.nextVertex+1) {
		return fmt.Errorf("graph: apply replicated vertex %d: ID beyond the vertex allocator (%d) or the storable range", v.ID, g.nextVertex)
	}
	advancePast(&g.nextVertex, int64(v.ID))
	if g.row(v.ID).live {
		return nil
	}
	g.insertVertexLocked(v.ID, row, hs)
	g.commitLocked(Mutation{Kind: MutAddVertex, Epoch: m.Epoch, Vertex: v}, true)
	return nil
}

// applyAddEdgesReplicated inserts a batch of leader-assigned edges and emits
// the batch record restricted to the edges actually inserted (re-delivered
// ones are skipped); a batch that inserted nothing emits nothing.
func (g *Graph) applyAddEdgesReplicated(m Mutation) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	fresh, err := g.insertExplicitLocked(m.Edges, "apply replicated")
	if err != nil {
		return err
	}
	if len(fresh) > 0 {
		g.commitLocked(Mutation{Kind: MutAddEdges, Epoch: m.Epoch, Edges: fresh}, true)
	}
	return nil
}
