package graph

import "nous/internal/graph/symtab"

// This file is the graph's read path for edges. Every consumer (fact
// decoding, pathsearch beam expansion, temporal window scans) iterates
// EdgeScan views: a stack-allocated projection of the slab columns, valid
// only inside the callback. The fact row is not copied into the view; its
// accessors read it from the slab on demand, so a traversal that never asks
// for provenance pays nothing for it. A consumer that needs an owned value
// calls Materialize, paying for the resolved strings only where it keeps the
// edge.
//
// Every scan holds the graph's read lock for its whole run, callback
// included. A callback must therefore not call back into the graph: a second
// read lock deadlocks as soon as a writer queues between the two. What a
// callback needs beyond the edge itself it reads through the view
// (EdgeScan.VertexLabel, EdgeScan.VertexName).

// EdgeScan is a read-only view of one edge's slab record. It is valid only
// for the duration of the callback it is passed to: the graph retains
// ownership of the underlying storage, and the view must not be retained or
// leaked past the callback (copy the fields out, or call Materialize).
type EdgeScan struct {
	ID        EdgeID
	Src, Dst  VertexID
	Label     symtab.SymID // interned predicate; resolve via LabelName
	off       int32        // the slot's offset in c; fills Label's padding, so the view stays 64 bytes
	Weight    float64
	Timestamp int64
	c         *edgeChunk // the slot's chunk, which the row accessors read
	g         *Graph
}

// LabelName resolves the edge's predicate to its canonical string.
func (e *EdgeScan) LabelName() string { return symtab.Resolve(e.Label) }

// Curated reports whether the edge stores a curated fact.
func (e *EdgeScan) Curated() bool { return e.c.curated[e.off] }

// Row returns a copy of the edge's fact row.
func (e *EdgeScan) Row() FactRow { return e.c.row(int(e.off)) }

// VertexLabel returns the label of vertex id — typically the edge's Src or
// Dst — read under the lock the scan already holds. It is how a callback
// reads an endpoint's type: calling Graph.Vertex there would take the read
// lock twice.
func (e *EdgeScan) VertexLabel(id VertexID) (string, bool) {
	return e.g.vertexLabel(id)
}

// VertexName returns the name of vertex id ("" for a missing or unnamed
// vertex), read under the lock the scan already holds.
func (e *EdgeScan) VertexName(id VertexID) string { return e.g.row(id).name }

// Materialize copies the view into an owned Edge value that remains valid
// after the callback returns.
func (e *EdgeScan) Materialize() Edge {
	return Edge{
		ID:        e.ID,
		Src:       e.Src,
		Dst:       e.Dst,
		Label:     symtab.Resolve(e.Label),
		Weight:    e.Weight,
		Timestamp: e.Timestamp,
		Row:       e.Row(),
	}
}

// fill loads the slab slot of edge id into the view.
func (e *EdgeScan) fill(id EdgeID, c *edgeChunk, off int) {
	e.ID = id
	e.Src = VertexID(c.src[off])
	e.Dst = VertexID(c.dst[off])
	e.Label = c.label[off]
	e.Weight = c.weight[off]
	e.Timestamp = c.ts[off]
	e.c, e.off = c, int32(off)
}

// scanRefs iterates a ref list into a reused view.
func (g *Graph) scanRefs(refs []edgeRef, ev *EdgeScan, fn func(*EdgeScan) bool) bool {
	for _, ref := range refs {
		c, off := g.slab.at(ref)
		ev.fill(EdgeID(ref), c, off)
		if !fn(ev) {
			return false
		}
	}
	return true
}

// ForEachOutScan calls fn with a view of each outgoing edge of id while fn
// returns true. fn must not call back into the graph or retain the view.
func (g *Graph) ForEachOutScan(id VertexID, fn func(*EdgeScan) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.scanRefs(g.row(id).out, &EdgeScan{g: g}, fn)
}

// ForEachInScan calls fn with a view of each incoming edge of id while fn
// returns true. fn must not call back into the graph or retain the view.
func (g *Graph) ForEachInScan(id VertexID, fn func(*EdgeScan) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.scanRefs(g.row(id).in, &EdgeScan{g: g}, fn)
}

// ForEachIncidentScan calls fn with a view of each edge incident to id —
// outgoing first, then incoming, each in ascending ID order — while fn
// returns true. fn must not call back into the graph or retain the view.
func (g *Graph) ForEachIncidentScan(id VertexID, fn func(*EdgeScan) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	row := g.row(id)
	ev := EdgeScan{g: g}
	if g.scanRefs(row.out, &ev, fn) {
		g.scanRefs(row.in, &ev, fn)
	}
}

// ScanEdge calls fn with a view of the edge with the given ID and reports
// whether the edge exists. fn must not call back into the graph or retain
// the view.
func (g *Graph) ScanEdge(id EdgeID, fn func(*EdgeScan)) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, off, ok := g.slab.cell(id)
	if !ok {
		return false
	}
	ev := EdgeScan{g: g}
	ev.fill(id, c, off)
	fn(&ev)
	return true
}

// ScanEdges calls fn with a view of every live edge while fn returns true,
// in increasing ID order: the order the edges were allocated in, whatever
// order a snapshot restore, a WAL replay or a replica's stream filled the
// slab in. Every whole-graph reader — fact decoding, assembly's seeding
// folds, View compilation, index rebuilds — therefore sees one order, and
// none sorts. The pass allocates nothing per edge. fn must not call back
// into the graph or retain the view.
func (g *Graph) ScanEdges(fn func(*EdgeScan) bool) { g.ScanEdgesFrom(0, fn) }

// ScanEdgesFrom is ScanEdges over the suffix of edges whose ID is at least
// from.
func (g *Graph) ScanEdgesFrom(from EdgeID, fn func(*EdgeScan) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.scanEdgesLocked(from, fn)
}

// scanEdgesLocked walks the slab's chunks in order from from's slot and
// visits every live slot. A slot is its edge's ID, so the walk is in
// increasing ID order with nothing to merge; a nil chunk holds no edge.
func (g *Graph) scanEdgesLocked(from EdgeID, fn func(*EdgeScan) bool) {
	from = max(from, 0)
	ev := EdgeScan{g: g}
	off := int(from & chunkMask)
	for ci := uint64(from) >> chunkBits; ci < uint64(len(g.slab.chunks)); ci, off = ci+1, 0 {
		c := g.slab.chunks[ci]
		if c == nil {
			continue
		}
		for ; off < chunkSize; off++ {
			if c.live[off] {
				ev.fill(EdgeID(ci<<chunkBits|uint64(off)), c, off)
				if !fn(&ev) {
					return
				}
			}
		}
	}
}
