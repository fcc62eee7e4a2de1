package graph

import (
	"fmt"
	"slices"

	"nous/internal/graph/symtab"
)

// MutationKind names the write operations a Graph can perform. Every exported
// mutator maps onto exactly one kind, so a subscriber that records mutations
// (see internal/persist's write-ahead log) can replay them and reconstruct the
// graph byte for byte.
type MutationKind uint8

// Mutation kinds. Values are part of the on-disk WAL format — append new
// kinds, never renumber. Values 2, 5 and 6 are reserved: they were the
// generic vertex-property set and the edge-property and edge-weight updates,
// which nothing writes since a vertex and a fact became fixed rows, and a
// record carrying any of them is now an unknown kind.
const (
	MutAddVertex      MutationKind = 1 // one vertex inserted (Vertex)
	MutAddEdges       MutationKind = 3 // a batch of edges inserted (Edges)
	MutRemoveEdge     MutationKind = 4 // one edge removed (EdgeID, Timestamp)
	MutSetVertexLabel MutationKind = 7 // one vertex relabelled (VertexID, Label)
	MutAddVertexAlias MutationKind = 8 // one alias appended to a vertex (VertexID, Alias)
)

// Mutation describes one completed graph write. Only the fields relevant to
// Kind are populated; Vertex.Aliases and Edges are private slices, which the
// subscriber may retain.
type Mutation struct {
	Kind MutationKind
	// Epoch is the graph's mutation epoch after this write. Live writes are
	// delivered in epoch order; a replica delivers the leader's stamps.
	Epoch uint64

	Vertex   Vertex   // MutAddVertex
	Edges    []Edge   // MutAddEdges (a single AddEdge logs a batch of one)
	VertexID VertexID // MutSetVertexLabel, MutAddVertexAlias
	EdgeID   EdgeID   // MutRemoveEdge
	Label    string   // MutSetVertexLabel: the new label
	Alias    string   // MutAddVertexAlias: the appended alias
	// Timestamp is the removed edge's timestamp (MutRemoveEdge). The graph
	// fills it from the edge's slot when it commits the removal, on every
	// path; a record never carries it, so the WAL does not log it.
	Timestamp int64
}

// MutationHook receives every completed mutation. It is invoked synchronously
// under the graph's write lock, after the write landed and the epoch moved,
// for every mutation kind. So subscribers observe the writes in the order
// they happened — an edge's insertion always before its removal — and
// m.Epoch equals Epoch() during the call. That ordering is load-bearing:
// without it a WAL could log remove-before-add for one edge and resurrect it
// on replay. The price is that slow hook work stalls every reader and writer,
// so a hook must not call back into the graph — any method but Epoch would
// self-deadlock on the held lock — and should do no more than hand the
// record off (the WAL's group-commit buffer, the temporal index's insert).
type MutationHook func(Mutation)

// hookEntry wraps one subscriber so it has an identity (func values are not
// comparable) and can be removed individually.
type hookEntry struct{ fn MutationHook }

// AddMutationHook registers a mutation subscriber and returns a function
// that removes it. Hooks are invoked in registration order. The list changes
// under the write lock, so a mutation is delivered either to the old list or
// to the new one, never to a mix.
func (g *Graph) AddMutationHook(h MutationHook) (remove func()) {
	e := &hookEntry{fn: h}
	g.mu.Lock()
	g.hooks = append(g.hooks, e)
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.hooks = slices.DeleteFunc(g.hooks, func(cur *hookEntry) bool { return cur == e })
		g.mu.Unlock()
	}
}

// --- Restore API -----------------------------------------------------------
//
// The methods below bulk-load a decoded snapshot into an empty graph. They
// accept explicit IDs, never bump the epoch and never fire the mutation
// hook: loading a snapshot is not a mutation, it is re-establishing state
// that was already logged. Each takes the write lock like any writer. A WAL
// record is not restored through them: replay applies it with
// ApplyReplicated, exactly as a replica applies its leader's stream.

// RestoreVertices bulk-loads vertices, in any order, under one write-lock
// acquisition, inserting each under its explicit ID and filing it in the
// entity index. Every ID must lie below the vertex allocator, which the
// snapshot's header sets through AdvanceIDs before its vertices load; the
// whole batch is checked before any vertex is written, so a forged ID can
// neither size the rows nor land half a batch. A vertex already present is
// left as it is, as ApplyReplicated leaves it. The graph keeps each vertex's
// Aliases slice rather than copying it. Labels are interned and index keys
// hashed before the lock is taken.
func (g *Graph) RestoreVertices(vs []Vertex) error {
	rows := make([]vertexRow, len(vs))
	hs := make([][]uint64, len(vs))
	for i := range vs {
		rows[i] = vertexRow{label: symtab.Intern(vs[i].Label), name: vs[i].Name, aliases: vs[i].Aliases}
		hs[i] = rowHashes(&rows[i])
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range vs {
		if !vertexFits(vs[i].ID, g.nextVertex) {
			return fmt.Errorf("graph: restore vertex %d: ID beyond the vertex allocator (%d) or the storable range", vs[i].ID, g.nextVertex)
		}
	}
	if g.numVertices == 0 { // a snapshot's load: size the rows and the index once
		g.vertices = make([]vertexRow, 0, len(vs))
		g.index = make(map[uint64][]VertexID, len(vs))
	}
	for i := range vs {
		if !g.row(vs[i].ID).live {
			g.insertVertexLocked(vs[i].ID, rows[i], hs[i])
		}
	}
	return nil
}

// vertexFits reports whether an explicit vertex ID from a snapshot, the WAL
// or a replication leader lies below limit and fits the slab's 32-bit
// endpoint columns.
func vertexFits(id VertexID, limit int64) bool {
	return id >= 0 && int64(id) < limit && uint64(id) <= maxSlabID
}

// insertExplicitLocked validates a batch of explicit-ID edges — all of them
// before any is inserted — then inserts those not yet present, advancing the
// edge allocator past every ID. It returns the edges it inserted. op names
// the caller in errors.
//
// AddEdges hands out IDs contiguously under the write lock, so a batch that
// a graph logged holds no ID at or above the allocator it started from plus
// the batch's length. An ID beyond that is refused: it can only come from a
// corrupt or forged record, and it would size the slab to the ID.
func (g *Graph) insertExplicitLocked(es []Edge, op string) ([]Edge, error) {
	limit := g.nextEdge + int64(len(es))
	for i := range es {
		if err := g.checkExplicitLocked(&es[i], limit, op); err != nil {
			return nil, err
		}
	}
	fresh := make([]Edge, 0, len(es))
	for i := range es {
		e := &es[i]
		advancePast(&g.nextEdge, int64(e.ID))
		if _, _, ok := g.slab.cell(e.ID); ok {
			continue // already present: duplicate delivery converges silently
		}
		g.insertEdgeLocked(e.ID, e.Src, e.Dst, e.Label, e.Weight, e.Timestamp, &e.Row)
		fresh = append(fresh, *e)
	}
	return fresh, nil
}

// checkExplicitLocked validates one explicit-ID edge from a snapshot, the
// WAL or a replication leader: its ID must lie below limit and fit the
// slab with its endpoints, and both endpoints must exist.
func (g *Graph) checkExplicitLocked(e *Edge, limit int64, op string) error {
	switch {
	case !edgeFits(e):
		return fmt.Errorf("graph: %s edge %d: ID or endpoints exceed storable range", op, e.ID)
	case int64(e.ID) >= limit:
		return fmt.Errorf("graph: %s edge %d: ID beyond the edge allocator (%d)", op, e.ID, limit)
	case !g.row(e.Src).live:
		return fmt.Errorf("graph: %s edge %d: source vertex %d does not exist", op, e.ID, e.Src)
	case !g.row(e.Dst).live:
		return fmt.Errorf("graph: %s edge %d: destination vertex %d does not exist", op, e.ID, e.Dst)
	}
	return nil
}

// RestoreEdges bulk-loads a snapshot's edges, in any order. Endpoints must
// all exist (vertices restore first), and every ID must lie below the edge
// allocator, which the snapshot's header sets through AdvanceIDs before its
// edges load; the whole batch is checked before any edge is written. Edges
// whose ID is already present are skipped (idempotence), as ApplyReplicated
// skips them.
//
// Each edge is written into its own slot. Adjacency is then rebuilt by one
// walk over the slab in ID order, so every list comes out ascending, as live
// writes leave it, with nothing to sort. Into an empty graph — the restore
// case — that walk appends each edge once; a graph that already held edges
// has its lists cleared first so they stay ascending too.
func (g *Graph) RestoreEdges(es []Edge) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range es {
		if err := g.checkExplicitLocked(&es[i], g.nextEdge, "restore"); err != nil {
			return err
		}
	}
	if g.slab.live > 0 {
		for i := range g.vertices {
			g.vertices[i].out, g.vertices[i].in = g.vertices[i].out[:0], g.vertices[i].in[:0]
		}
	}
	for i := range es {
		e := &es[i]
		if _, _, ok := g.slab.cell(e.ID); !ok {
			g.slab.put(e.ID, e.Src, e.Dst, symtab.Intern(e.Label), e.Weight, e.Timestamp, &e.Row)
		}
	}
	g.scanEdgesLocked(0, func(e *EdgeScan) bool {
		g.linkLocked(edgeRef(e.ID), e.Src, e.Dst)
		return true
	})
	return nil
}

// SetEpoch overwrites the mutation epoch. Called once at the end of recovery
// with the epoch the persisted state had reached.
func (g *Graph) SetEpoch(e uint64) { g.epoch.Store(e) }

// AdvanceIDs moves the ID allocators forward to at least the given values
// (never backward). A snapshot persists the allocators explicitly because a
// crashed batch insert may have reserved IDs it never wrote.
func (g *Graph) AdvanceIDs(nextVertex, nextEdge int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	advancePast(&g.nextVertex, nextVertex-1)
	advancePast(&g.nextEdge, nextEdge-1)
}

// advancePast raises an allocator to id+1 unless it is already greater. The
// caller holds the write lock.
func advancePast(ctr *int64, id int64) {
	if id >= *ctr {
		*ctr = id + 1
	}
}

// --- Snapshot API ----------------------------------------------------------

// GraphSnapshot is a point-in-time copy of a graph: its vertices and edges,
// the epoch and the ID allocators, all captured atomically with respect to
// mutations. Graph.Snapshot lists the vertices and edges in ascending ID
// order; the Restore API accepts them in any order.
type GraphSnapshot struct {
	Vertices   []Vertex
	Edges      []Edge
	Epoch      uint64
	NextVertex int64
	NextEdge   int64
}

// Snapshot copies the whole graph under the read lock, so the copy is an
// exact cut at the epoch it records — no edge can reference a vertex the
// copy lacks. Writers block for the duration of the memory copy only. Both
// lists come out in ID order with nothing to sort: the vertices from a walk
// over the rows, the edges from one over the slab.
func (g *Graph) Snapshot() *GraphSnapshot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	snap := &GraphSnapshot{
		Vertices:   make([]Vertex, 0, g.numVertices),
		Edges:      make([]Edge, 0, g.slab.live),
		Epoch:      g.epoch.Load(),
		NextVertex: g.nextVertex,
		NextEdge:   g.nextEdge,
	}
	for i := range g.vertices {
		if row := &g.vertices[i]; row.live {
			snap.Vertices = append(snap.Vertices, row.export(VertexID(i)))
		}
	}
	g.scanEdgesLocked(0, func(e *EdgeScan) bool {
		snap.Edges = append(snap.Edges, e.Materialize())
		return true
	})
	return snap
}
