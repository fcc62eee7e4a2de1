// Package graph implements an in-memory directed property graph with
// temporal edges and compiled views for whole-graph
// kernels (view.go). It is the substrate NOUS's paper built on Apache Spark
// GraphX; this implementation keeps the parts of that API surface NOUS uses —
// vertices and edges carrying arbitrary properties, neighborhood iteration
// and PageRank — at single-process scale.
//
// Storage is partitioned into numShards stripes: a vertex and its adjacency
// lists live in the stripe owning the vertex ID, while an edge record lives
// in the stripe owning the edge ID. Stripes are data
// partitions only. They give snapshots their per-stripe sections, let
// snapshot encode, decode and restore run one worker per stripe, and keep
// each stripe's seq → slot index dense.
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
// Memory layout: strings (labels, predicates, prop keys) are interned into
// dense SymIDs (internal/graph/symtab) and edge records live in per-stripe
// columnar slabs (slab.go) addressed by compact 4-byte refs, not as
// individually heap-allocated *Edge values. Edges are read through scan.go's
// slab-native views; only Edge, Snapshot and mutation hooks materialize
// exported Edge values with plain strings.
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

// Vertex is a labeled node with arbitrary string properties.
type Vertex struct {
	ID    VertexID
	Label string // entity type, e.g. "Organization"
	Props map[string]string
}

// Edge is a directed, labeled, timestamped edge with a weight and arbitrary
// string properties. Timestamp is seconds since the epoch (0 when the edge is
// not temporal).
type Edge struct {
	ID        EdgeID
	Src, Dst  VertexID
	Label     string // predicate, e.g. "acquired"
	Weight    float64
	Timestamp int64
	Props     map[string]string
}

// numShards is the stripe count. A power of two so ID → stripe is a mask.
// Must equal 1<<shardBits (slab.go), which ties the EdgeID ↔ (shard, seq)
// split to the stripe count and with it the snapshot layout.
const numShards = 1 << shardBits

// vertexRec is a vertex's stored form: interned label, interned-key props.
type vertexRec struct {
	label symtab.SymID
	props propMap
}

// shard is one stripe. Vertices (with their adjacency lists) are owned by
// the stripe of their VertexID; edge records (slab slots) are owned by the
// stripe of their EdgeID. An adjacency ref may point
// into another stripe's slab.
type shard struct {
	vertices map[VertexID]vertexRec
	out      map[VertexID][]edgeRef
	in       map[VertexID][]edgeRef
	slab     edgeSlab
	idx      []uint32 // seq -> slab slot + 1; 0 = absent
	live     int      // edges owned here that are not tombstoned
}

// Graph is a mutable directed multigraph. All exported methods are safe for
// concurrent use.
type Graph struct {
	// mu guards every field below except epoch (see the package comment).
	mu     sync.RWMutex
	shards [numShards]shard

	nextVertex int64
	nextEdge   int64

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
	g := &Graph{}
	for i := range g.shards {
		s := &g.shards[i]
		s.vertices = make(map[VertexID]vertexRec)
		s.out = make(map[VertexID][]edgeRef)
		s.in = make(map[VertexID][]edgeRef)
	}
	return g
}

func shardIdx(id uint64) int { return int(id & (numShards - 1)) }

func (g *Graph) vshard(id VertexID) *shard { return &g.shards[shardIdx(uint64(id))] }
func (g *Graph) eshard(id EdgeID) *shard   { return &g.shards[shardIdx(uint64(id))] }

// AddVertex inserts a vertex with the given label and returns its ID.
func (g *Graph) AddVertex(label string) VertexID {
	return g.AddVertexWithProps(label, nil)
}

// AddVertexWithProps inserts a vertex carrying the given properties.
// The props map is copied. The vertex and its properties become visible
// atomically: no reader can observe the vertex without them.
func (g *Graph) AddVertexWithProps(label string, props map[string]string) VertexID {
	rec := vertexRec{label: symtab.Intern(label), props: internProps(props)}
	g.mu.Lock()
	defer g.mu.Unlock()
	id := VertexID(g.nextVertex)
	g.nextVertex++
	g.vshard(id).vertices[id] = rec
	m := Mutation{Kind: MutAddVertex}
	if len(g.hooks) > 0 {
		m.Vertex = Vertex{ID: id, Label: label, Props: copyProps(props)}
	}
	g.commitLocked(m, false)
	return id
}

// SetVertexProp sets one property on a vertex. It reports whether the vertex
// exists.
func (g *Graph) SetVertexProp(id VertexID, key, value string) bool {
	return g.setVertexProp(Mutation{Kind: MutSetVertexProp, VertexID: id, Key: key, Value: value}, false)
}

// setVertexProp applies a MutSetVertexProp record and commits it. A missing
// vertex is a no-op that emits nothing.
func (g *Graph) setVertexProp(m Mutation, replicated bool) bool {
	sym := symtab.Intern(m.Key)
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.vshard(m.VertexID)
	rec, ok := s.vertices[m.VertexID]
	if !ok {
		return false
	}
	if rec.props == nil {
		rec.props = make(propMap, 1)
		s.vertices[m.VertexID] = rec
	}
	rec.props[sym] = m.Value
	g.commitLocked(Mutation{Kind: MutSetVertexProp, Epoch: m.Epoch, VertexID: m.VertexID, Key: m.Key, Value: m.Value}, replicated)
	return true
}

// VertexProp returns a property of a vertex.
func (g *Graph) VertexProp(id VertexID, key string) (string, bool) {
	sym, known := symtab.Lookup(key)
	if !known {
		return "", false // a never-interned key is set on no element
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	rec, ok := g.vshard(id).vertices[id]
	if !ok || rec.props == nil {
		return "", false
	}
	val, ok := rec.props[sym]
	return val, ok
}

// Vertex returns a copy of the vertex with the given ID.
func (g *Graph) Vertex(id VertexID) (Vertex, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.vertexLocked(id)
}

func (g *Graph) vertexLocked(id VertexID) (Vertex, bool) {
	rec, ok := g.vshard(id).vertices[id]
	if !ok {
		return Vertex{}, false
	}
	return Vertex{ID: id, Label: symtab.Resolve(rec.label), Props: exportProps(rec.props)}, true
}

// HasVertex reports whether the vertex exists.
func (g *Graph) HasVertex(id VertexID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.hasVertexLocked(id)
}

func (g *Graph) hasVertexLocked(id VertexID) bool {
	_, ok := g.vshard(id).vertices[id]
	return ok
}

// AddEdge inserts a directed edge and returns its ID. Both endpoints must
// exist.
func (g *Graph) AddEdge(src, dst VertexID, label string) (EdgeID, error) {
	return g.AddEdgeFull(src, dst, label, 1.0, 0, nil)
}

// AddEdgeFull inserts a directed edge with weight, timestamp and properties.
// It is AddEdges with a batch of one.
func (g *Graph) AddEdgeFull(src, dst VertexID, label string, weight float64, ts int64, props map[string]string) (EdgeID, error) {
	ids, err := g.AddEdges([]EdgeSpec{{Src: src, Dst: dst, Label: label, Weight: weight, Timestamp: ts, Props: props}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// insertEdgeLocked appends an edge into its owning stripe and wires it into
// both endpoints' adjacency lists. props (interned form) is retained, not
// copied — callers pass a private map.
func (g *Graph) insertEdgeLocked(id EdgeID, src, dst VertexID, label symtab.SymID, weight float64, ts int64, props propMap) {
	ref := g.eshard(id).appendEdge(id, src, dst, label, weight, ts, props)
	ss, ds := g.vshard(src), g.vshard(dst)
	ss.out[src] = append(ss.out[src], ref)
	ds.in[dst] = append(ds.in[dst], ref)
}

// appendEdge stores an edge record in this (its owning) stripe's slab and seq
// index and returns its ref. Adjacency is the caller's.
func (s *shard) appendEdge(id EdgeID, src, dst VertexID, label symtab.SymID, weight float64, ts int64, props propMap) edgeRef {
	seq := seqOf(id)
	slot := s.slab.append(seq, src, dst, label, weight, ts)
	if props != nil {
		c, off := s.slab.chunk(slot)
		c.setProps(off, props)
	}
	s.setIdx(seq, slot)
	s.live++
	return makeRef(shardIdx(uint64(id)), slot)
}

// RemoveEdge deletes an edge. It reports whether the edge existed.
func (g *Graph) RemoveEdge(id EdgeID) bool {
	return g.removeEdge(Mutation{Kind: MutRemoveEdge, EdgeID: id}, false)
}

// removeEdge applies a MutRemoveEdge record and commits it: the edge's slab
// slot is tombstoned and unwired from the seq index and both adjacency lists. A missing edge is a no-op that emits nothing.
func (g *Graph) removeEdge(m Mutation, replicated bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	es := g.eshard(m.EdgeID)
	slot, ok := es.lookup(seqOf(m.EdgeID))
	if !ok {
		return false
	}
	c, off := es.slab.chunk(slot)
	src, dst := VertexID(c.src[off]), VertexID(c.dst[off])
	c.dead[off] = true
	if c.props != nil {
		c.props[off] = nil // release the props map; the slot is never reused
	}
	es.clearIdx(seqOf(m.EdgeID))
	es.live--
	ref := makeRef(shardIdx(uint64(m.EdgeID)), slot)
	ss, ds := g.vshard(src), g.vshard(dst)
	ss.out[src] = removeRef(ss.out[src], ref)
	ds.in[dst] = removeRef(ds.in[dst], ref)
	g.commitLocked(Mutation{Kind: MutRemoveEdge, Epoch: m.Epoch, EdgeID: m.EdgeID}, replicated)
	return true
}

// edgeCellsLocked resolves a live edge to its slab chunk and offset.
func (g *Graph) edgeCellsLocked(id EdgeID) (*edgeChunk, int, bool) {
	s := g.eshard(id)
	slot, ok := s.lookup(seqOf(id))
	if !ok {
		return nil, 0, false
	}
	c, off := s.slab.chunk(slot)
	return c, off, true
}

// Edge returns a copy of the edge with the given ID.
func (g *Graph) Edge(id EdgeID) (Edge, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, off, ok := g.edgeCellsLocked(id)
	if !ok {
		return Edge{}, false
	}
	return materializeEdge(shardIdx(uint64(id)), c, off), true
}

// materializeEdge builds an exported Edge value from a slab slot.
func materializeEdge(si int, c *edgeChunk, off int) Edge {
	return Edge{
		ID:        idOf(si, c.seq[off]),
		Src:       VertexID(c.src[off]),
		Dst:       VertexID(c.dst[off]),
		Label:     symtab.Resolve(c.label[off]),
		Weight:    c.weight[off],
		Timestamp: c.ts[off],
		Props:     exportProps(c.propsAt(off)),
	}
}

// SetEdgeProp sets one property on an edge. It reports whether the edge
// exists.
func (g *Graph) SetEdgeProp(id EdgeID, key, value string) bool {
	return g.updateEdge(Mutation{Kind: MutSetEdgeProp, EdgeID: id, Key: key, Value: value}, false)
}

// SetEdgeWeight updates an edge's weight. It reports whether the edge exists.
func (g *Graph) SetEdgeWeight(id EdgeID, w float64) bool {
	return g.updateEdge(Mutation{Kind: MutSetEdgeWeight, EdgeID: id, Weight: w}, false)
}

// updateEdge applies a MutSetEdgeProp or MutSetEdgeWeight record to its
// edge's slab cells and commits it. A missing edge is a no-op that emits
// nothing.
func (g *Graph) updateEdge(m Mutation, replicated bool) bool {
	var key symtab.SymID
	if m.Kind == MutSetEdgeProp {
		key = symtab.Intern(m.Key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c, off, ok := g.edgeCellsLocked(m.EdgeID)
	if !ok {
		return false
	}
	if m.Kind == MutSetEdgeWeight {
		c.weight[off] = m.Weight
	} else if p := c.propsAt(off); p != nil {
		p[key] = m.Value
	} else {
		c.setProps(off, propMap{key: m.Value})
	}
	g.commitLocked(m, replicated)
	return true
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for i := range g.shards {
		n += len(g.shards[i].vertices)
	}
	return n
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.numEdgesLocked()
}

func (g *Graph) numEdgesLocked() int {
	n := 0
	for i := range g.shards {
		n += g.shards[i].live
	}
	return n
}

// Degree returns in-degree + out-degree.
func (g *Graph) Degree(id VertexID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := g.vshard(id)
	return len(s.out[id]) + len(s.in[id])
}

// Neighbors returns the distinct vertices adjacent to id in either direction,
// in ascending order.
func (g *Graph) Neighbors(id VertexID) []VertexID {
	seen := make(map[VertexID]struct{})
	g.mu.RLock()
	s := g.vshard(id)
	for _, ref := range s.out[id] {
		c, off := g.shards[ref.shard()].slab.chunk(ref.slot())
		seen[VertexID(c.dst[off])] = struct{}{}
	}
	for _, ref := range s.in[id] {
		c, off := g.shards[ref.shard()].slab.chunk(ref.slot())
		seen[VertexID(c.src[off])] = struct{}{}
	}
	g.mu.RUnlock()
	delete(seen, id)
	ids := make([]VertexID, 0, len(seen))
	for v := range seen {
		ids = append(ids, v)
	}
	slices.Sort(ids)
	return ids
}

// VertexIDs returns all vertex IDs in ascending order.
func (g *Graph) VertexIDs() []VertexID {
	g.mu.RLock()
	ids := g.vertexIDsLocked()
	g.mu.RUnlock()
	slices.Sort(ids)
	return ids
}

// vertexIDsLocked lists every vertex ID, unsorted.
func (g *Graph) vertexIDsLocked() []VertexID {
	var ids []VertexID
	for i := range g.shards {
		for id := range g.shards[i].vertices {
			ids = append(ids, id)
		}
	}
	return ids
}

// removeRef drops one ref from an adjacency list by swap-with-last, the same
// order-destroying removal the pointer-based layout used.
func removeRef(list []edgeRef, ref edgeRef) []edgeRef {
	for i, r := range list {
		if r == ref {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// copyProps clones an exported props map, returning nil when the input is
// nil or empty: prop-less elements carry a nil map at the API boundary, not
// an allocated empty one.
func copyProps(p map[string]string) map[string]string {
	if len(p) == 0 {
		return nil
	}
	cp := make(map[string]string, len(p))
	for k, v := range p {
		cp[k] = v
	}
	return cp
}
