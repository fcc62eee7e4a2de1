// Package graph implements an in-memory directed property graph with
// per-label edge indexes, temporal edges and compiled views for whole-graph
// kernels (view.go). It is the substrate NOUS's paper built on Apache Spark
// GraphX; this implementation keeps the parts of that API surface NOUS uses —
// vertices and edges carrying arbitrary properties, neighborhood iteration
// and PageRank — at single-process scale.
//
// Storage is partitioned across lock-striped shards so unrelated mutations
// do not contend on one global mutex: a vertex, its adjacency lists and its
// degree counters live in the shard owning the vertex ID, while an edge
// record and its label-index entry live in the shard owning the edge ID.
// Operations spanning several shards (edge insertion touches the source's
// shard, the destination's shard and the edge's shard) acquire the distinct
// shards in ascending index order, which makes multi-shard writers
// deadlock-free.
//
// Memory layout: strings (labels, predicates, prop keys) are interned into
// dense SymIDs (internal/graph/symtab) and edge records live in per-shard
// columnar slabs (slab.go) addressed by compact 4-byte refs, not as
// individually heap-allocated *Edge values. The exported API still traffics
// in Vertex/Edge values with plain strings — they are materialized on demand
// at the API boundary, and scan.go provides slab-native iteration for hot
// consumers that don't want the materialization cost.
package graph

import (
	"fmt"
	"slices"
	"sort"
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

// numShards is the lock-stripe count. A power of two so ID → shard is a
// mask; 16 stripes keep contention low well past the core counts this
// process-local store targets. Must equal 1<<shardBits (slab.go), which ties
// the EdgeID ↔ (shard, seq) split to the stripe count.
const numShards = 1 << shardBits

// vertexRec is a vertex's stored form: interned label, interned-key props.
type vertexRec struct {
	label symtab.SymID
	props propMap
}

// shard is one lock stripe. Vertices (with their adjacency lists) are owned
// by the shard of their VertexID; edge records (slab slots) and the
// per-label index entries are owned by the shard of their EdgeID.
//
// Invariant: an edge is reachable from three shards — its own (slab via idx,
// byLabel), its source's (out) and its destination's (in). Any write to an
// edge's slab cells or to the structures referencing it holds all three
// shard locks, so a reader holding any one of them observes a consistent
// record — including when it dereferences an edgeRef into another shard's
// slab without taking that shard's lock.
type shard struct {
	mu       sync.RWMutex
	vertices map[VertexID]vertexRec
	out      map[VertexID][]edgeRef
	in       map[VertexID][]edgeRef
	slab     edgeSlab
	idx      []uint32 // seq -> slab slot + 1; 0 = absent
	byLabel  map[symtab.SymID]*labelSet
	live     int // edges owned here that are not tombstoned
}

// Graph is a mutable directed multigraph. All exported methods are safe for
// concurrent use.
type Graph struct {
	shards [numShards]shard

	nextVertex atomic.Int64
	nextEdge   atomic.Int64

	// epoch counts completed mutations. It is bumped after every write
	// finishes, so a derived artifact computed against the epoch observed
	// before the computation started is invalidated by any write that lands
	// during or after it.
	epoch atomic.Uint64

	// hooks is the copy-on-write list of mutation subscribers (see
	// AddMutationHook / SetMutationHook). hookMu serializes list updates;
	// primaryHook tracks the entry SetMutationHook owns.
	hookMu      sync.Mutex
	hooks       atomic.Pointer[[]*hookEntry]
	primaryHook *hookEntry
}

// Epoch returns the graph's monotonic mutation counter. It is read
// lock-free; two equal Epoch values bracket a window in which no mutation
// completed, which callers (see internal/analytics) use to memoize derived
// artifacts such as PageRank.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// bump records one completed mutation and returns the new epoch. Called
// after the write's data landed (for edge writes, while the shard locks are
// still held — any reader tagged with the new epoch that touches the
// written shard blocks until the locks drop and therefore observes the
// write), so no artifact can be tagged with an epoch newer than the state
// it was computed from.
func (g *Graph) bump() uint64 { return g.epoch.Add(1) }

// New returns an empty graph.
func New() *Graph {
	g := &Graph{}
	for i := range g.shards {
		s := &g.shards[i]
		s.vertices = make(map[VertexID]vertexRec)
		s.out = make(map[VertexID][]edgeRef)
		s.in = make(map[VertexID][]edgeRef)
		s.byLabel = make(map[symtab.SymID]*labelSet)
	}
	return g
}

func shardIdx(id uint64) int { return int(id & (numShards - 1)) }

func (g *Graph) vshard(id VertexID) *shard { return &g.shards[shardIdx(uint64(id))] }
func (g *Graph) eshard(id EdgeID) *shard   { return &g.shards[shardIdx(uint64(id))] }

// sorted3 orders three shard indexes ascending.
func sorted3(a, b, c int) (int, int, int) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}

// lockEdgeShards write-locks the distinct shards an edge write touches, in
// ascending index order.
func (g *Graph) lockEdgeShards(src, dst VertexID, id EdgeID) {
	a, b, c := sorted3(shardIdx(uint64(src)), shardIdx(uint64(dst)), shardIdx(uint64(id)))
	g.shards[a].mu.Lock()
	if b != a {
		g.shards[b].mu.Lock()
	}
	if c != b {
		g.shards[c].mu.Lock()
	}
}

func (g *Graph) unlockEdgeShards(src, dst VertexID, id EdgeID) {
	a, b, c := sorted3(shardIdx(uint64(src)), shardIdx(uint64(dst)), shardIdx(uint64(id)))
	if c != b {
		g.shards[c].mu.Unlock()
	}
	if b != a {
		g.shards[b].mu.Unlock()
	}
	g.shards[a].mu.Unlock()
}

// AddVertex inserts a vertex with the given label and returns its ID.
func (g *Graph) AddVertex(label string) VertexID {
	return g.AddVertexWithProps(label, nil)
}

// AddVertexWithProps inserts a vertex carrying the given properties.
// The props map is copied. The vertex and its properties become visible
// atomically: no reader can observe the vertex without them.
func (g *Graph) AddVertexWithProps(label string, props map[string]string) VertexID {
	id := VertexID(g.nextVertex.Add(1) - 1)
	rec := vertexRec{label: symtab.Intern(label), props: internProps(props)}
	s := g.vshard(id)
	s.mu.Lock()
	s.vertices[id] = rec
	s.mu.Unlock()
	ep := g.bump()
	if g.hooked() {
		g.emit(Mutation{Kind: MutAddVertex, Epoch: ep,
			Vertex: Vertex{ID: id, Label: label, Props: copyProps(props)}})
	}
	return id
}

// SetVertexProp sets one property on a vertex. It reports whether the vertex
// exists.
func (g *Graph) SetVertexProp(id VertexID, key, value string) bool {
	sym := symtab.Intern(key)
	s := g.vshard(id)
	s.mu.Lock()
	rec, ok := s.vertices[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	if rec.props == nil {
		rec.props = make(propMap, 1)
		s.vertices[id] = rec
	}
	rec.props[sym] = value
	s.mu.Unlock()
	ep := g.bump()
	g.emit(Mutation{Kind: MutSetVertexProp, Epoch: ep, VertexID: id, Key: key, Value: value})
	return true
}

// VertexProp returns a property of a vertex.
func (g *Graph) VertexProp(id VertexID, key string) (string, bool) {
	sym, known := symtab.Lookup(key)
	if !known {
		return "", false // a never-interned key is set on no element
	}
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.vertices[id]
	if !ok || rec.props == nil {
		return "", false
	}
	val, ok := rec.props[sym]
	return val, ok
}

// Vertex returns a copy of the vertex with the given ID.
func (g *Graph) Vertex(id VertexID) (Vertex, bool) {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.vertices[id]
	if !ok {
		return Vertex{}, false
	}
	return Vertex{ID: id, Label: symtab.Resolve(rec.label), Props: exportProps(rec.props)}, true
}

// HasVertex reports whether the vertex exists.
func (g *Graph) HasVertex(id VertexID) bool {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.vertices[id]
	return ok
}

// AddEdge inserts a directed edge and returns its ID. Both endpoints must
// exist.
func (g *Graph) AddEdge(src, dst VertexID, label string) (EdgeID, error) {
	return g.AddEdgeFull(src, dst, label, 1.0, 0, nil)
}

// AddEdgeFull inserts a directed edge with weight, timestamp and properties.
func (g *Graph) AddEdgeFull(src, dst VertexID, label string, weight float64, ts int64, props map[string]string) (EdgeID, error) {
	// Vertices are never removed, so existence checked here holds for the
	// rest of the insertion.
	if !g.HasVertex(src) {
		return 0, fmt.Errorf("graph: add edge %q: source vertex %d does not exist", label, src)
	}
	if !g.HasVertex(dst) {
		return 0, fmt.Errorf("graph: add edge %q: destination vertex %d does not exist", label, dst)
	}
	id := EdgeID(g.nextEdge.Add(1) - 1)
	sym := symtab.Intern(label)
	ip := internProps(props)
	g.lockEdgeShards(src, dst, id)
	g.insertEdgeLocked(id, src, dst, sym, weight, ts, ip)
	// Bump and emit before releasing the shard locks (as RemoveEdge does):
	// once the locks drop, a concurrent remover can find the edge and emit
	// its MutRemoveEdge — subscribers (the WAL, the temporal index) must
	// never observe an edge's removal before its insertion.
	ep := g.bump()
	if g.hooked() {
		g.emit(Mutation{Kind: MutAddEdges, Epoch: ep, Edges: []Edge{
			{ID: id, Src: src, Dst: dst, Label: label, Weight: weight, Timestamp: ts, Props: copyProps(props)},
		}})
	}
	g.unlockEdgeShards(src, dst, id)
	return id, nil
}

// insertEdgeLocked appends an edge into its owning shard's slab and wires it
// into every index. The caller holds the write locks of the source's,
// destination's and edge's shards. props (interned form) is retained, not
// copied — callers pass a private map.
func (g *Graph) insertEdgeLocked(id EdgeID, src, dst VertexID, label symtab.SymID, weight float64, ts int64, props propMap) {
	si := shardIdx(uint64(id))
	es := &g.shards[si]
	seq := seqOf(id)
	slot := es.slab.append(seq, src, dst, label, weight, ts)
	if props != nil {
		c, off := es.slab.chunk(slot)
		c.setProps(off, props)
	}
	es.setIdx(seq, slot)
	ls := es.byLabel[label]
	if ls == nil {
		ls = &labelSet{}
		es.byLabel[label] = ls
	}
	ls.slots = append(ls.slots, slot)
	ls.live++
	es.live++
	ref := makeRef(si, slot)
	ss, ds := g.vshard(src), g.vshard(dst)
	ss.out[src] = append(ss.out[src], ref)
	ds.in[dst] = append(ds.in[dst], ref)
}

// edgeEndpoints resolves an edge's immutable endpoints so the caller can
// take the full shard lock set for a mutation.
func (g *Graph) edgeEndpoints(id EdgeID) (src, dst VertexID, ok bool) {
	es := g.eshard(id)
	es.mu.RLock()
	defer es.mu.RUnlock()
	slot, ok := es.lookup(seqOf(id))
	if !ok {
		return 0, 0, false
	}
	c, off := es.slab.chunk(slot)
	return VertexID(c.src[off]), VertexID(c.dst[off]), true
}

// RemoveEdge deletes an edge. It reports whether the edge existed.
func (g *Graph) RemoveEdge(id EdgeID) bool {
	src, dst, ok := g.edgeEndpoints(id)
	if !ok {
		return false
	}
	g.lockEdgeShards(src, dst, id)
	defer g.unlockEdgeShards(src, dst, id)
	es := g.eshard(id)
	slot, ok := es.lookup(seqOf(id)) // may have raced with another remover
	if !ok {
		return false
	}
	g.dropEdgeLocked(id, src, dst, slot)
	ep := g.bump()
	g.emit(Mutation{Kind: MutRemoveEdge, Epoch: ep, EdgeID: id})
	return true
}

// dropEdgeLocked tombstones an edge's slab slot and unwires it from every
// index and adjacency list. The caller holds the write locks of the source's,
// destination's and edge's shards and has resolved the live slot.
func (g *Graph) dropEdgeLocked(id EdgeID, src, dst VertexID, slot uint32) {
	si := shardIdx(uint64(id))
	es := &g.shards[si]
	c, off := es.slab.chunk(slot)
	label := c.label[off]
	c.dead[off] = true
	if arr := c.props.Load(); arr != nil {
		arr[off] = nil // release the props map; the slot is never reused
	}
	es.clearIdx(seqOf(id))
	es.live--
	if ls := es.byLabel[label]; ls != nil {
		ls.live--
		if ls.live == 0 {
			delete(es.byLabel, label)
		} else if len(ls.slots) >= 2*ls.live+chunkSize {
			es.compactLabelLocked(ls)
		}
	}
	ref := makeRef(si, slot)
	ss, ds := g.vshard(src), g.vshard(dst)
	ss.out[src] = removeRef(ss.out[src], ref)
	ds.in[dst] = removeRef(ds.in[dst], ref)
}

// compactLabelLocked drops tombstoned slots from a label set. Caller holds
// the owning shard's write lock.
func (s *shard) compactLabelLocked(ls *labelSet) {
	kept := ls.slots[:0]
	for _, slot := range ls.slots {
		if c, off := s.slab.chunk(slot); !c.dead[off] {
			kept = append(kept, slot)
		}
	}
	ls.slots = kept
}

// Edge returns a copy of the edge with the given ID.
func (g *Graph) Edge(id EdgeID) (Edge, bool) {
	es := g.eshard(id)
	es.mu.RLock()
	defer es.mu.RUnlock()
	slot, ok := es.lookup(seqOf(id))
	if !ok {
		return Edge{}, false
	}
	c, off := es.slab.chunk(slot)
	return materializeEdge(shardIdx(uint64(id)), c, off), true
}

// materializeEdge builds an exported Edge value from a slab slot. The caller
// holds a lock through which the slot is reachable.
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

// edgeAt materializes the edge an adjacency ref points to. The caller holds
// a shard lock through which ref was read; the target slab's cells are
// consistent under it per the three-shard invariant.
func (g *Graph) edgeAt(ref edgeRef) Edge {
	si := ref.shard()
	c, off := g.shards[si].slab.chunk(ref.slot())
	return materializeEdge(si, c, off)
}

// SetEdgeProp sets one property on an edge. It reports whether the edge
// exists.
func (g *Graph) SetEdgeProp(id EdgeID, key, value string) bool {
	sym := symtab.Intern(key)
	return g.mutateEdge(id, func(c *edgeChunk, off int) {
		p := c.propsAt(off)
		if p == nil {
			c.setProps(off, propMap{sym: value})
			return
		}
		p[sym] = value
	}, Mutation{Kind: MutSetEdgeProp, EdgeID: id, Key: key, Value: value})
}

// SetEdgeWeight updates an edge's weight. It reports whether the edge exists.
func (g *Graph) SetEdgeWeight(id EdgeID, w float64) bool {
	return g.mutateEdge(id, func(c *edgeChunk, off int) { c.weight[off] = w },
		Mutation{Kind: MutSetEdgeWeight, EdgeID: id, Weight: w})
}

// mutateEdge applies fn to an edge's slab cells under every shard lock
// through which the record is reachable, so no concurrent reader can observe
// a half-applied mutation. On success the mutation record m (stamped with the
// new epoch) is delivered to the hook.
func (g *Graph) mutateEdge(id EdgeID, fn func(c *edgeChunk, off int), m Mutation) bool {
	src, dst, ok := g.edgeEndpoints(id)
	if !ok {
		return false
	}
	g.lockEdgeShards(src, dst, id)
	defer g.unlockEdgeShards(src, dst, id)
	es := g.eshard(id)
	slot, ok := es.lookup(seqOf(id))
	if !ok {
		return false
	}
	c, off := es.slab.chunk(slot)
	fn(c, off)
	m.Epoch = g.bump()
	g.emit(m)
	return true
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int {
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		n += len(s.vertices)
		s.mu.RUnlock()
	}
	return n
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		n += s.live
		s.mu.RUnlock()
	}
	return n
}

// OutDegree returns the number of outgoing edges of a vertex.
func (g *Graph) OutDegree(id VertexID) int {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.out[id])
}

// InDegree returns the number of incoming edges of a vertex.
func (g *Graph) InDegree(id VertexID) int {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.in[id])
}

// Degree returns in-degree + out-degree.
func (g *Graph) Degree(id VertexID) int {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.out[id]) + len(s.in[id])
}

// OutEdges returns copies of the outgoing edges of a vertex.
func (g *Graph) OutEdges(id VertexID) []Edge {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return g.materializeRefs(s.out[id])
}

// InEdges returns copies of the incoming edges of a vertex.
func (g *Graph) InEdges(id VertexID) []Edge {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return g.materializeRefs(s.in[id])
}

// Edges returns copies of all edges incident to the vertex (both directions).
func (g *Graph) Edges(id VertexID) []Edge {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	all := make([]Edge, 0, len(s.out[id])+len(s.in[id]))
	for _, ref := range s.out[id] {
		all = append(all, g.edgeAt(ref))
	}
	for _, ref := range s.in[id] {
		all = append(all, g.edgeAt(ref))
	}
	return all
}

// Neighbors returns the distinct vertices adjacent to id in either direction,
// in ascending order.
func (g *Graph) Neighbors(id VertexID) []VertexID {
	s := g.vshard(id)
	s.mu.RLock()
	seen := make(map[VertexID]struct{})
	for _, ref := range s.out[id] {
		c, off := g.shards[ref.shard()].slab.chunk(ref.slot())
		seen[VertexID(c.dst[off])] = struct{}{}
	}
	for _, ref := range s.in[id] {
		c, off := g.shards[ref.shard()].slab.chunk(ref.slot())
		seen[VertexID(c.src[off])] = struct{}{}
	}
	s.mu.RUnlock()
	delete(seen, id)
	ids := make([]VertexID, 0, len(seen))
	for v := range seen {
		ids = append(ids, v)
	}
	slices.Sort(ids)
	return ids
}

// EdgesByLabel returns copies of all edges carrying the given label.
func (g *Graph) EdgesByLabel(label string) []Edge {
	sym, known := symtab.Lookup(label)
	if !known {
		return nil
	}
	var es []Edge
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		if ls := s.byLabel[sym]; ls != nil {
			for _, slot := range ls.slots {
				if c, off := s.slab.chunk(slot); !c.dead[off] {
					es = append(es, materializeEdge(i, c, off))
				}
			}
		}
		s.mu.RUnlock()
	}
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	return es
}

// EdgesWithLabel returns the number of live edges carrying the given label,
// summed from the per-stripe label indexes' live counters — no slot is
// visited and no edge is materialized, so the cost is O(shards). It is the
// cardinality source the query planner uses to estimate predicate
// selectivity.
func (g *Graph) EdgesWithLabel(label string) int {
	sym, known := symtab.Lookup(label)
	if !known {
		return 0
	}
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		if ls := s.byLabel[sym]; ls != nil {
			n += ls.live
		}
		s.mu.RUnlock()
	}
	return n
}

// EdgeLabels returns the distinct edge labels present in the graph, sorted.
func (g *Graph) EdgeLabels() []string {
	seen := make(map[symtab.SymID]struct{})
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		for sym := range s.byLabel {
			seen[sym] = struct{}{}
		}
		s.mu.RUnlock()
	}
	labels := make([]string, 0, len(seen))
	for sym := range seen {
		labels = append(labels, symtab.Resolve(sym))
	}
	sort.Strings(labels)
	return labels
}

// VertexIDs returns all vertex IDs in ascending order.
func (g *Graph) VertexIDs() []VertexID {
	var ids []VertexID
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		for id := range s.vertices {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	slices.Sort(ids)
	return ids
}

// EdgeIDs returns all edge IDs in ascending order.
func (g *Graph) EdgeIDs() []EdgeID {
	var ids []EdgeID
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		for slot := uint32(0); slot < s.slab.len; slot++ {
			if c, off := s.slab.chunk(slot); !c.dead[off] {
				ids = append(ids, idOf(i, c.seq[off]))
			}
		}
		s.mu.RUnlock()
	}
	slices.Sort(ids)
	return ids
}

// FindEdges returns copies of edges from src to dst with the given label.
// An empty label matches any label.
func (g *Graph) FindEdges(src, dst VertexID, label string) []Edge {
	var sym symtab.SymID
	any := label == ""
	if !any {
		var known bool
		sym, known = symtab.Lookup(label)
		if !known {
			return nil
		}
	}
	s := g.vshard(src)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Edge
	for _, ref := range s.out[src] {
		c, off := g.shards[ref.shard()].slab.chunk(ref.slot())
		if VertexID(c.dst[off]) == dst && (any || c.label[off] == sym) {
			out = append(out, materializeEdge(ref.shard(), c, off))
		}
	}
	return out
}

// ForEachOutEdge calls fn for each outgoing edge of id while fn returns true.
// fn must not mutate the graph.
func (g *Graph) ForEachOutEdge(id VertexID, fn func(Edge) bool) {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ref := range s.out[id] {
		if !fn(g.edgeAt(ref)) {
			return
		}
	}
}

// ForEachIncidentEdge calls fn for each edge incident to id — outgoing
// edges first, then incoming, each in insertion order (the same order
// Edges returns) — while fn returns true. fn must not mutate the graph.
func (g *Graph) ForEachIncidentEdge(id VertexID, fn func(Edge) bool) {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ref := range s.out[id] {
		if !fn(g.edgeAt(ref)) {
			return
		}
	}
	for _, ref := range s.in[id] {
		if !fn(g.edgeAt(ref)) {
			return
		}
	}
}

// ForEachInEdge calls fn for each incoming edge of id while fn returns true.
// fn must not mutate the graph.
func (g *Graph) ForEachInEdge(id VertexID, fn func(Edge) bool) {
	s := g.vshard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ref := range s.in[id] {
		if !fn(g.edgeAt(ref)) {
			return
		}
	}
}

// materializeRefs copies the edges behind a ref list. Caller holds the shard
// lock the list was read under.
func (g *Graph) materializeRefs(refs []edgeRef) []Edge {
	out := make([]Edge, len(refs))
	for i, ref := range refs {
		out[i] = g.edgeAt(ref)
	}
	return out
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
