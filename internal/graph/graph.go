// Package graph implements an in-memory directed property graph with
// temporal edges and compiled views for whole-graph
// kernels (view.go). It is the substrate NOUS's paper built on Apache Spark
// GraphX; this implementation keeps the parts of that API surface NOUS uses —
// vertices carrying one fixed entity row (type, name, aliases), edges
// carrying one fixed fact row, neighborhood iteration and PageRank — at
// single-process scale.
//
// Storage is two structures, each addressed by ID: one slice of vertex rows
// whose index is the VertexID (label, name, aliases and the out and in
// adjacency lists), and one columnar edge slab whose slot is the edge ID
// (slab.go). Vertex IDs come from one dense allocator and no write removes a
// vertex, so the rows are nearly gap-free. Adjacency lists
// hold edge IDs in ascending order, the order live writes append them in and
// the order a snapshot restore rebuilds them in, so the graph reads the same
// whichever path built it.
//
// Concurrency: one sync.RWMutex (Graph.mu) guards the whole graph. Every
// write holds it exclusively from validation through its epoch move and hook
// delivery; every read method holds it shared, once per call. Code inside
// the package calls unlocked helpers (the *Locked methods), so nothing here
// takes the lock twice. The lock order across the store is
//
//	core.KG.mu → graph.Graph.mu → temporal.Index.mu
//
// core.KG's writers call into the graph while holding the KG lock, and the
// temporal index is fed from the graph's mutation hook, which runs under the
// graph's write lock. Nothing may take these locks in the opposite order.
//
// Facts are write-once. After insertion a live edge's endpoints, label,
// weight, timestamp and fact row never change; the only later write to an
// edge is its removal. So an edge ID read at one epoch names the same edge
// value at every later epoch at which the edge is still live, and a reader
// that validates an answer by re-reading Epoch has only edge insertions,
// removals and vertex writes (a new vertex, a relabel, an appended alias) to
// account for, never an edge edited in place.
//
// Memory layout: strings (labels, predicates, sources and fact types) are
// interned into dense SymIDs (internal/graph/symtab) and edge records live in
// the columnar slab, addressed by 4-byte refs, not as individually
// heap-allocated *Edge values. Edges are read through
// scan.go's slab-native views; only Edge, Snapshot and mutation hooks
// materialize exported Edge values with plain strings. Named vertices are
// found through the entity index (index.go), which the vertex write paths
// keep beside the rows.
package graph

import (
	"slices"
	"sync"
	"sync/atomic"

	"nous/internal/graph/symtab"
)

// VertexID identifies a vertex. IDs are assigned densely by the graph and
// are never reused within one Graph instance.
type VertexID int64

// EdgeID identifies an edge within one Graph instance.
type EdgeID int64

// NilVertex is returned by lookups that find no vertex.
const NilVertex VertexID = -1

// Vertex is an entity node: one type label, a canonical name and the alias
// keys bound to it.
type Vertex struct {
	ID      VertexID
	Label   string   // entity type, e.g. "Organization"
	Name    string   // canonical name; "" for an unnamed vertex
	Aliases []string // alias keys, in insertion order
}

// Edge is a directed, labeled, timestamped edge with a weight and a fact
// row. Timestamp is seconds since the epoch (0 when the edge is not
// temporal).
type Edge struct {
	ID        EdgeID
	Src, Dst  VertexID
	Label     string // predicate, e.g. "acquired"
	Weight    float64
	Timestamp int64
	Row       FactRow
}

// FactRow is the fixed provenance every edge stores: the part of a fact that
// its endpoints, label, weight and timestamp do not hold. The zero row is an
// edge with no provenance.
type FactRow struct {
	Source   string // provenance source
	Doc      string // provenance document ID
	Sentence string // supporting sentence
	// SType and OType are the triple's subject and object types, which can
	// be broader than the endpoint vertices' own; "" means the vertex's.
	SType, OType string
	Curated      bool // a curated fact, visible in every time window
}

// vertexRow is a vertex's stored form: its interned label, its name, its
// aliases and its adjacency — the refs of its outgoing and incoming edges,
// in ascending ID order. Names and aliases stay plain strings: they are
// near-unique and would only bloat the interner. A row holds a vertex only
// while live is set, so a zero row is absent: an ID the allocator skipped
// (AdvanceIDs) reads as no vertex.
type vertexRow struct {
	live    bool
	label   symtab.SymID
	name    string
	aliases []string
	out, in []edgeRef
}

// export materializes the stored row as a Vertex with its own alias slice.
func (row *vertexRow) export(id VertexID) Vertex {
	return Vertex{ID: id, Label: symtab.Resolve(row.label), Name: row.name, Aliases: slices.Clone(row.aliases)}
}

// Graph is a mutable directed multigraph. All exported methods are safe for
// concurrent use.
type Graph struct {
	// mu guards every field below except epoch (see the package comment).
	mu          sync.RWMutex
	vertices    []vertexRow // row i is vertex i
	numVertices int         // live rows
	slab        edgeSlab

	nextVertex int64
	nextEdge   int64

	// index files each named vertex under the hashes of its name and alias
	// keys, and named counts the named vertices (index.go).
	index map[uint64][]VertexID
	named int

	// epoch counts completed mutations. It moves under the write lock, after
	// the write's data landed and before its hook delivery, so a reader that
	// holds the lock and reads epoch E observes exactly the state of E. It is
	// atomic so Epoch stays lock-free.
	epoch atomic.Uint64

	// hooks are the mutation subscribers in registration order.
	hooks []*hookEntry
}

// Epoch returns the graph's monotonic mutation counter. It is read
// lock-free; two equal Epoch values bracket a window in which no mutation
// completed, which callers (see internal/analytics) use to memoize derived
// artifacts such as PageRank.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// commitLocked publishes one completed write: it moves the epoch, stamps m
// with it and delivers m to every hook. The caller holds the write lock, so
// the write, its epoch and its delivery form one step that no locked reader
// can split, and subscribers receive every mutation kind in epoch order. A
// live write bumps the epoch. A replicated one (replicate.go) keeps the
// leader's stamp already in m and adopts it, never lowering the graph's own.
func (g *Graph) commitLocked(m Mutation, replicated bool) {
	if !replicated {
		m.Epoch = g.epoch.Add(1)
	} else if m.Epoch > g.epoch.Load() {
		g.epoch.Store(m.Epoch)
	}
	for _, h := range g.hooks {
		h.fn(m)
	}
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[uint64][]VertexID)}
}

// row returns a copy of vertex id's row: the zero row, which is not live,
// when no vertex has the ID. The caller holds the lock.
func (g *Graph) row(id VertexID) vertexRow {
	if uint64(id) < uint64(len(g.vertices)) {
		return g.vertices[id]
	}
	return vertexRow{}
}

// AddVertex inserts a vertex with the given label and name, and no
// aliases, and returns its ID. A non-empty name files the vertex in the
// entity index (index.go).
func (g *Graph) AddVertex(label, name string) VertexID {
	sym := symtab.Intern(label)
	hs := [1]uint64{keyHash(name)}
	g.mu.Lock()
	defer g.mu.Unlock()
	id := VertexID(g.nextVertex)
	g.nextVertex++
	g.insertVertexLocked(id, vertexRow{label: sym, name: name}, hs[:])
	m := Mutation{Kind: MutAddVertex}
	if len(g.hooks) > 0 {
		m.Vertex = Vertex{ID: id, Label: label, Name: name}
	}
	g.commitLocked(m, false)
	return id
}

// SetVertexLabel changes a vertex's label. It reports whether the label
// changed: a missing vertex, or one that already carries the label, is a
// no-op that emits nothing.
func (g *Graph) SetVertexLabel(id VertexID, label string) bool {
	return g.setVertexLabel(Mutation{Kind: MutSetVertexLabel, VertexID: id, Label: label}, false)
}

// setVertexLabel applies a MutSetVertexLabel record and commits it.
func (g *Graph) setVertexLabel(m Mutation, replicated bool) bool {
	sym := symtab.Intern(m.Label)
	g.mu.Lock()
	defer g.mu.Unlock()
	if row := g.row(m.VertexID); !row.live || row.label == sym {
		return false
	}
	g.vertices[m.VertexID].label = sym
	g.commitLocked(Mutation{Kind: MutSetVertexLabel, Epoch: m.Epoch, VertexID: m.VertexID, Label: m.Label}, replicated)
	return true
}

// AddVertexAlias appends one alias to a vertex and, if the vertex is
// named, files it under the alias's key. It reports whether the alias was
// added: a missing vertex, or one that already carries the alias, is a
// no-op that emits nothing.
func (g *Graph) AddVertexAlias(id VertexID, alias string) bool {
	return g.addVertexAlias(Mutation{Kind: MutAddVertexAlias, VertexID: id, Alias: alias}, false)
}

// addVertexAlias applies a MutAddVertexAlias record and commits it.
func (g *Graph) addVertexAlias(m Mutation, replicated bool) bool {
	h := keyHash(m.Alias)
	g.mu.Lock()
	defer g.mu.Unlock()
	row := g.row(m.VertexID)
	if !row.live || slices.Contains(row.aliases, m.Alias) {
		return false
	}
	g.vertices[m.VertexID].aliases = append(row.aliases, m.Alias)
	if row.name != "" {
		g.fileLocked(h, m.VertexID)
	}
	g.commitLocked(Mutation{Kind: MutAddVertexAlias, Epoch: m.Epoch, VertexID: m.VertexID, Alias: m.Alias}, replicated)
	return true
}

// Vertex returns a copy of the vertex with the given ID.
func (g *Graph) Vertex(id VertexID) (Vertex, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	row := g.row(id)
	if !row.live {
		return Vertex{}, false
	}
	return row.export(id), true
}

// HasVertex reports whether the vertex exists.
func (g *Graph) HasVertex(id VertexID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.row(id).live
}

// AddEdge inserts a directed edge and returns its ID. Both endpoints must
// exist. It is AddEdges with a batch of one: weight 1, no timestamp and the
// zero fact row.
func (g *Graph) AddEdge(src, dst VertexID, label string) (EdgeID, error) {
	ids, err := g.AddEdges([]EdgeSpec{{Src: src, Dst: dst, Label: label, Weight: 1}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// insertEdgeLocked writes an edge into its slab slot and appends it to both
// endpoints' adjacency lists.
func (g *Graph) insertEdgeLocked(id EdgeID, src, dst VertexID, label string, weight float64, ts int64, row *FactRow) {
	g.slab.put(id, src, dst, symtab.Intern(label), weight, ts, row)
	g.linkLocked(edgeRef(id), src, dst)
}

// linkLocked appends ref to src's out list and dst's in list.
func (g *Graph) linkLocked(ref edgeRef, src, dst VertexID) {
	s := &g.vertices[src]
	s.out = append(s.out, ref)
	d := &g.vertices[dst]
	d.in = append(d.in, ref)
}

// RemoveEdge deletes an edge. It reports whether the edge existed.
func (g *Graph) RemoveEdge(id EdgeID) bool {
	return g.removeEdge(Mutation{Kind: MutRemoveEdge, EdgeID: id}, false)
}

// removeEdge applies a MutRemoveEdge record and commits it: the edge's slab
// slot is cleared and the edge unwired from both adjacency lists. The
// committed record carries the edge's timestamp, read from its slot, so a
// subscriber finds the edge by time. A missing edge is a no-op that emits
// nothing.
func (g *Graph) removeEdge(m Mutation, replicated bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, off, ok := g.slab.cell(m.EdgeID)
	if !ok {
		return false
	}
	src, dst, ts := VertexID(c.src[off]), VertexID(c.dst[off]), c.ts[off]
	g.slab.remove(c, off)
	ref := edgeRef(m.EdgeID)
	s := &g.vertices[src]
	s.out = removeRef(s.out, ref)
	d := &g.vertices[dst]
	d.in = removeRef(d.in, ref)
	g.commitLocked(Mutation{Kind: MutRemoveEdge, Epoch: m.Epoch, EdgeID: m.EdgeID, Timestamp: ts}, replicated)
	return true
}

// Edge returns a copy of the edge with the given ID.
func (g *Graph) Edge(id EdgeID) (Edge, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, off, ok := g.slab.cell(id)
	if !ok {
		return Edge{}, false
	}
	var ev EdgeScan
	ev.fill(id, c, off)
	return ev.Materialize(), true
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.numVertices
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.slab.live
}

// NextEdge returns the edge ID allocator: the ID the next added edge gets.
// Snapshots persist it and replicated edges advance it, so a reopened graph
// and a follower read what the leader does at the same log position.
func (g *Graph) NextEdge() EdgeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return EdgeID(g.nextEdge)
}

// Degree returns in-degree + out-degree.
func (g *Graph) Degree(id VertexID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	row := g.row(id)
	return len(row.out) + len(row.in)
}

// Neighbors returns the distinct vertices adjacent to id in either direction,
// in ascending order.
func (g *Graph) Neighbors(id VertexID) []VertexID {
	var ids []VertexID
	g.mu.RLock()
	row := g.row(id)
	for _, ref := range row.out {
		c, off := g.slab.at(ref)
		ids = append(ids, VertexID(c.dst[off]))
	}
	for _, ref := range row.in {
		c, off := g.slab.at(ref)
		ids = append(ids, VertexID(c.src[off]))
	}
	g.mu.RUnlock()
	slices.Sort(ids)
	return slices.DeleteFunc(slices.Compact(ids), func(v VertexID) bool { return v == id })
}

// removeRef drops one ref from an adjacency list, keeping the rest in order.
func removeRef(list []edgeRef, ref edgeRef) []edgeRef {
	if i := slices.Index(list, ref); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}
