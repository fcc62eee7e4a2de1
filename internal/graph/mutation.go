package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"nous/internal/graph/symtab"
)

// MutationKind names the write operations a Graph can perform. Every exported
// mutator maps onto exactly one kind, so a subscriber that records mutations
// (see internal/persist's write-ahead log) can replay them and reconstruct the
// graph byte for byte.
type MutationKind uint8

// Mutation kinds. Values are part of the on-disk WAL format — append new
// kinds, never renumber.
const (
	MutAddVertex     MutationKind = 1 // one vertex inserted (Vertex)
	MutSetVertexProp MutationKind = 2 // one vertex property set (VertexID, Key, Value)
	MutAddEdges      MutationKind = 3 // a batch of edges inserted (Edges)
	MutRemoveEdge    MutationKind = 4 // one edge removed (EdgeID)
	MutSetEdgeProp   MutationKind = 5 // one edge property set (EdgeID, Key, Value)
	MutSetEdgeWeight MutationKind = 6 // one edge weight updated (EdgeID, Weight)
)

// Mutation describes one completed graph write. Only the fields relevant to
// Kind are populated; Vertex.Props and Edges[i].Props are private copies the
// subscriber may retain.
type Mutation struct {
	Kind MutationKind
	// Epoch is the graph's mutation epoch after this write. Live writes are
	// delivered in epoch order; a replica delivers the leader's stamps.
	Epoch uint64

	Vertex   Vertex   // MutAddVertex
	Edges    []Edge   // MutAddEdges (a single AddEdge logs a batch of one)
	VertexID VertexID // MutSetVertexProp
	EdgeID   EdgeID   // MutRemoveEdge, MutSetEdgeProp, MutSetEdgeWeight
	Key      string   // MutSetVertexProp, MutSetEdgeProp
	Value    string   // MutSetVertexProp, MutSetEdgeProp
	Weight   float64  // MutSetEdgeWeight
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
// The methods below rebuild a graph from persisted state (snapshot sections
// and WAL records). They accept explicit IDs, never bump the epoch and never
// fire the mutation hook: restoring is not a mutation, it is re-establishing
// state that was already logged. Each takes the write lock like any writer.

// RestoreVertex inserts (or overwrites) a vertex with an explicit ID and
// advances the vertex ID allocator past it. Overwriting is what makes WAL
// replay idempotent: re-applying an AddVertex record on top of a snapshot
// that already contains the vertex converges, because every later property
// write is also re-applied from the log.
func (g *Graph) RestoreVertex(v Vertex) {
	g.RestoreVertices([]Vertex{v})
}

// RestoreVertices bulk-loads vertices under one write-lock acquisition.
// Labels and props are interned before the lock is taken, so concurrent
// calls (one per snapshot section) overlap that work. Semantics per vertex
// match RestoreVertex.
func (g *Graph) RestoreVertices(vs []Vertex) {
	recs := make([]vertexRec, len(vs))
	for i := range vs {
		recs[i] = vertexRec{label: symtab.Intern(vs[i].Label), props: internProps(vs[i].Props)}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range vs {
		g.vshard(vs[i].ID).vertices[vs[i].ID] = recs[i]
		advancePast(&g.nextVertex, int64(vs[i].ID))
	}
}

// RestoreEdge inserts an edge with an explicit ID and advances the edge ID
// allocator past it. An edge whose ID already exists is skipped (replay
// idempotence); an edge whose endpoints are missing is an error, because a
// well-formed snapshot + log always restores endpoints first.
func (g *Graph) RestoreEdge(e Edge) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, err := g.insertExplicitLocked([]Edge{e}, "restore")
	return err
}

// insertExplicitLocked validates a batch of explicit-ID edges — all of them
// before any is inserted — then inserts those not yet present, advancing the
// edge allocator past every ID. It returns the edges it inserted. op names
// the caller in errors.
func (g *Graph) insertExplicitLocked(es []Edge, op string) ([]Edge, error) {
	for i := range es {
		if err := g.checkExplicitLocked(&es[i], op); err != nil {
			return nil, err
		}
	}
	fresh := make([]Edge, 0, len(es))
	for i := range es {
		e := &es[i]
		advancePast(&g.nextEdge, int64(e.ID))
		if _, ok := g.eshard(e.ID).lookup(seqOf(e.ID)); ok {
			continue // already present: duplicate delivery converges silently
		}
		g.insertEdgeLocked(e.ID, e.Src, e.Dst, symtab.Intern(e.Label), e.Weight, e.Timestamp, internProps(e.Props))
		fresh = append(fresh, *e)
	}
	return fresh, nil
}

// checkExplicitLocked validates one explicit-ID edge from a snapshot, the
// WAL or a replication leader: its ID and endpoints must fit the slab's
// packed columns, and both endpoints must exist.
func (g *Graph) checkExplicitLocked(e *Edge, op string) error {
	switch {
	case !edgeFits(e):
		return fmt.Errorf("graph: %s edge %d: ID or endpoints exceed storable range", op, e.ID)
	case !g.hasVertexLocked(e.Src):
		return fmt.Errorf("graph: %s edge %d: source vertex %d does not exist", op, e.ID, e.Src)
	case !g.hasVertexLocked(e.Dst):
		return fmt.Errorf("graph: %s edge %d: destination vertex %d does not exist", op, e.ID, e.Dst)
	}
	return nil
}

// RestoreEdges bulk-loads a snapshot's edges, rebuilding the columnar slabs
// in parallel per stripe. byOwner must be indexed by owning shard (ShardCount
// groups, edge ID mod ShardCount == group index), the per-shard layout
// snapshots already use. Endpoints must all exist (vertices restore first).
//
// The load holds the write lock throughout and runs in two phases of one
// worker per stripe, each writing only its own stripe: phase one appends each
// stripe's edges into its slab; phase two distributes
// adjacency refs, each worker owning one target stripe and appending its refs
// sorted by edge ID — a deterministic order regardless of worker scheduling.
// Edges whose ID is already present are skipped (idempotence), matching
// RestoreEdge.
func (g *Graph) RestoreEdges(byOwner [][]Edge) error {
	if len(byOwner) != numShards {
		return fmt.Errorf("graph: restore edges: got %d shard groups, want %d", len(byOwner), numShards)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	maxID := int64(-1)
	for si, es := range byOwner {
		for i := range es {
			if shardIdx(uint64(es[i].ID)) != si {
				return fmt.Errorf("graph: restore edges: edge %d in shard group %d", es[i].ID, si)
			}
			if err := g.checkExplicitLocked(&es[i], "restore"); err != nil {
				return err
			}
			maxID = max(maxID, int64(es[i].ID))
		}
	}

	// Phase one: per owning stripe, append slab slots.
	// Each inserted edge's ref is collected for phase two.
	type pendingRef struct {
		id  EdgeID
		ref edgeRef
	}
	inserted := make([][]pendingRef, numShards)
	var wg sync.WaitGroup
	for si := 0; si < numShards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s := &g.shards[si]
			refs := make([]pendingRef, 0, len(byOwner[si]))
			for i := range byOwner[si] {
				e := &byOwner[si][i]
				if _, ok := s.lookup(seqOf(e.ID)); ok {
					continue // already present: replay idempotence
				}
				ref := s.appendEdge(e.ID, e.Src, e.Dst, symtab.Intern(e.Label), e.Weight, e.Timestamp, internProps(e.Props))
				refs = append(refs, pendingRef{id: e.ID, ref: ref})
			}
			inserted[si] = refs
		}(si)
	}
	wg.Wait()

	// Phase two: distribute adjacency refs. Worker t owns target stripe t and
	// appends every inserted edge's out-ref (source owned by t) and in-ref
	// (destination owned by t), sorted by edge ID so adjacency order is
	// deterministic and matches ascending-ID insertion.
	for t := 0; t < numShards; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			type adj struct {
				id   EdgeID
				v    VertexID
				ref  edgeRef
				isIn bool
			}
			var mine []adj
			for si := range inserted {
				for _, pr := range inserted[si] {
					c, off := g.shards[si].slab.chunk(pr.ref.slot())
					src, dst := VertexID(c.src[off]), VertexID(c.dst[off])
					if shardIdx(uint64(src)) == t {
						mine = append(mine, adj{id: pr.id, v: src, ref: pr.ref})
					}
					if shardIdx(uint64(dst)) == t {
						mine = append(mine, adj{id: pr.id, v: dst, ref: pr.ref, isIn: true})
					}
				}
			}
			sort.Slice(mine, func(i, j int) bool { return mine[i].id < mine[j].id })
			s := &g.shards[t]
			for _, a := range mine {
				if a.isIn {
					s.in[a.v] = append(s.in[a.v], a.ref)
				} else {
					s.out[a.v] = append(s.out[a.v], a.ref)
				}
			}
		}(t)
	}
	wg.Wait()
	advancePast(&g.nextEdge, maxID)
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

// ShardCount returns the number of stripes. Snapshot files encode each
// stripe's contents independently so encoding and decoding parallelize.
func ShardCount() int { return numShards }

// GraphSnapshot is a point-in-time copy of a graph: per-shard owned vertices
// and edges (sorted by ID for deterministic encoding), the epoch and the ID
// allocators, all captured atomically with respect to mutations.
type GraphSnapshot struct {
	Vertices   [][]Vertex // [shard][...]: vertices owned by that shard
	Edges      [][]Edge   // [shard][...]: edges owned by that shard
	Epoch      uint64
	NextVertex int64
	NextEdge   int64
}

// Snapshot copies the whole graph under the read lock, so the copy is an
// exact cut at the epoch it records — no edge can reference a vertex the
// copy lacks. Writers block for the duration of the memory copy only;
// sorting and encoding happen after the lock is released.
func (g *Graph) Snapshot() *GraphSnapshot {
	g.mu.RLock()
	snap := &GraphSnapshot{
		Vertices:   make([][]Vertex, numShards),
		Edges:      make([][]Edge, numShards),
		Epoch:      g.epoch.Load(),
		NextVertex: g.nextVertex,
		NextEdge:   g.nextEdge,
	}
	for i := range g.shards {
		s := &g.shards[i]
		vs := make([]Vertex, 0, len(s.vertices))
		for id, rec := range s.vertices {
			vs = append(vs, Vertex{ID: id, Label: symtab.Resolve(rec.label), Props: exportProps(rec.props)})
		}
		es := make([]Edge, 0, s.live)
		for slot := uint32(0); slot < s.slab.len; slot++ {
			if c, off := s.slab.chunk(slot); !c.dead[off] {
				es = append(es, materializeEdge(i, c, off))
			}
		}
		snap.Vertices[i] = vs
		snap.Edges[i] = es
	}
	g.mu.RUnlock()
	for i := range snap.Vertices {
		vs, es := snap.Vertices[i], snap.Edges[i]
		sort.Slice(vs, func(a, b int) bool { return vs[a].ID < vs[b].ID })
		sort.Slice(es, func(a, b int) bool { return es[a].ID < es[b].ID })
	}
	return snap
}
