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
	rec, ok := e.g.vshard(id).vertices[id]
	if !ok {
		return "", false
	}
	return symtab.Resolve(rec.label), true
}

// VertexName returns the name of vertex id ("" for a missing or unnamed
// vertex), read under the lock the scan already holds.
func (e *EdgeScan) VertexName(id VertexID) string { return e.g.vshard(id).vertices[id].name }

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

// fill loads a slab slot into the view.
func (e *EdgeScan) fill(si int, c *edgeChunk, off int) {
	e.ID = idOf(si, c.seq[off])
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
		si := ref.shard()
		c, off := g.shards[si].slab.chunk(ref.slot())
		ev.fill(si, c, off)
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
	ev := EdgeScan{g: g}
	g.scanRefs(g.vshard(id).out[id], &ev, fn)
}

// ForEachInScan calls fn with a view of each incoming edge of id while fn
// returns true. fn must not call back into the graph or retain the view.
func (g *Graph) ForEachInScan(id VertexID, fn func(*EdgeScan) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ev := EdgeScan{g: g}
	g.scanRefs(g.vshard(id).in[id], &ev, fn)
}

// ForEachIncidentScan calls fn with a view of each edge incident to id —
// outgoing first, then incoming, each in insertion order — while fn returns
// true. fn must not call back into the graph or retain the view.
func (g *Graph) ForEachIncidentScan(id VertexID, fn func(*EdgeScan) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := g.vshard(id)
	ev := EdgeScan{g: g}
	if g.scanRefs(s.out[id], &ev, fn) {
		g.scanRefs(s.in[id], &ev, fn)
	}
}

// ScanEdge calls fn with a view of the edge with the given ID and reports
// whether the edge exists. fn must not call back into the graph or retain
// the view.
func (g *Graph) ScanEdge(id EdgeID, fn func(*EdgeScan)) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, off, ok := g.edgeCellsLocked(id)
	if !ok {
		return false
	}
	ev := EdgeScan{g: g}
	ev.fill(shardIdx(uint64(id)), c, off)
	fn(&ev)
	return true
}

// ScanEdges calls fn with a view of every live edge while fn returns true —
// stripe by stripe, in slab (insertion) order within each stripe. This is the
// sequential-memory whole-graph scan: one pass over the columnar chunks with
// no per-edge allocation. fn must not call back into the graph or retain the
// view.
func (g *Graph) ScanEdges(fn func(*EdgeScan) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.scanEdgesLocked(fn)
}

func (g *Graph) scanEdgesLocked(fn func(*EdgeScan) bool) {
	ev := EdgeScan{g: g}
	for si := range g.shards {
		s := &g.shards[si]
		for ci, c := range s.slab.chunks {
			end := min(chunkSize, int(s.slab.len)-ci<<chunkBits)
			for off := 0; off < end; off++ {
				if c.dead[off] {
					continue
				}
				ev.fill(si, c, off)
				if !fn(&ev) {
					return
				}
			}
		}
	}
}
