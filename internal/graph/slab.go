package graph

import "nous/internal/graph/symtab"

// This file implements the columnar slab that stores edge records. Edges are
// not heap-allocated one by one: one slab holds every edge of the graph in
// fixed-size chunks of parallel arrays (one column per field), and an edge's
// slot is its ID — chunk id>>chunkBits, offset id&chunkMask. So a lookup is
// two shifts, a whole-graph scan in ID order is a sequential walk over dense
// memory, and the per-edge footprint is the sum of the column widths (74
// bytes, 45 of them the fact row) instead of a pointer-chased Edge struct
// plus allocator overhead. The row's doc and sentence strings are the only
// per-edge heap data outside the chunk.
//
// A slot holds an edge only while its live flag is set, so a zero slot is
// absent: an ID the allocator skipped (AdvanceIDs, a replica's gaps) and a
// removed edge read alike. A chunk with no edge yet is a nil pointer.
// Chunks never move once allocated, so a slot's address is stable for the
// graph's lifetime. The slab is guarded by the graph's one lock (Graph.mu):
// writers hold it exclusively, readers shared.

const (
	// chunkBits sizes slab chunks at 512 slots (~37KB of columns), small
	// enough that sparsely-used graphs don't overpay and large enough that
	// scans are effectively sequential.
	chunkBits = 9
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	// maxSlabID bounds the edge and vertex IDs the slab stores: edge IDs are
	// 4-byte adjacency refs, and vertex IDs fill the 32-bit src/dst columns.
	maxSlabID = 1<<32 - 1
)

// edgeChunk is one fixed-capacity block of columnar edge storage. A slot's
// fields are immutable after insertion except the live flag, which
// RemoveEdge clears (releasing the slot's strings with it). The fact-row
// columns (source through curated) are read only on demand, through
// EdgeScan's row accessors, so a scan that never reads provenance never
// touches them.
type edgeChunk struct {
	src      [chunkSize]uint32       // source VertexID (fits 32 bits, see maxSlabID)
	dst      [chunkSize]uint32       // destination VertexID
	label    [chunkSize]symtab.SymID // interned predicate
	weight   [chunkSize]float64
	ts       [chunkSize]int64
	live     [chunkSize]bool // set while the slot holds an edge; a removed edge's slot is never reused (IDs are not)
	curated  [chunkSize]bool
	source   [chunkSize]symtab.SymID
	stype    [chunkSize]symtab.SymID
	otype    [chunkSize]symtab.SymID
	doc      [chunkSize]string
	sentence [chunkSize]string
}

// row materializes the fact row at off.
func (c *edgeChunk) row(off int) FactRow {
	return FactRow{
		Source:   symtab.Resolve(c.source[off]),
		Doc:      c.doc[off],
		Sentence: c.sentence[off],
		SType:    symtab.Resolve(c.stype[off]),
		OType:    symtab.Resolve(c.otype[off]),
		Curated:  c.curated[off],
	}
}

// edgeSlab is the graph's ID-addressed columnar edge store.
type edgeSlab struct {
	chunks []*edgeChunk // chunk i holds IDs [i<<chunkBits, (i+1)<<chunkBits); nil holds none
	live   int          // slots holding an edge
}

// put writes edge id into its slot, allocating the slot's chunk on first
// use. The slot must not hold an edge.
func (s *edgeSlab) put(id EdgeID, src, dst VertexID, label symtab.SymID, weight float64, ts int64, row *FactRow) {
	if uint64(id) > maxSlabID {
		panic("graph: edge ID beyond the slab's 32-bit range")
	}
	ci, off := int(id>>chunkBits), int(id&chunkMask)
	for ci >= len(s.chunks) {
		s.chunks = append(s.chunks, nil)
	}
	c := s.chunks[ci]
	if c == nil {
		c = &edgeChunk{}
		s.chunks[ci] = c
	}
	c.src[off] = uint32(src)
	c.dst[off] = uint32(dst)
	c.label[off] = label
	c.weight[off] = weight
	c.ts[off] = ts
	c.live[off] = true
	c.curated[off] = row.Curated
	c.source[off] = symtab.Intern(row.Source)
	c.stype[off] = symtab.Intern(row.SType)
	c.otype[off] = symtab.Intern(row.OType)
	c.doc[off] = row.Doc
	c.sentence[off] = row.Sentence
	s.live++
}

// cell resolves edge id to its chunk and in-chunk offset, and reports
// whether the slot holds an edge.
func (s *edgeSlab) cell(id EdgeID) (*edgeChunk, int, bool) {
	if uint64(id>>chunkBits) >= uint64(len(s.chunks)) {
		return nil, 0, false
	}
	c, off := s.chunks[id>>chunkBits], int(id&chunkMask)
	if c == nil || !c.live[off] {
		return nil, 0, false
	}
	return c, off, true
}

// at resolves the ref of a live edge to its chunk and in-chunk offset.
func (s *edgeSlab) at(ref edgeRef) (*edgeChunk, int) {
	return s.chunks[ref>>chunkBits], int(ref & chunkMask)
}

// remove clears a live slot and releases its strings.
func (s *edgeSlab) remove(c *edgeChunk, off int) {
	c.live[off] = false
	c.doc[off], c.sentence[off] = "", ""
	s.live--
}

// edgeRef is an adjacency list's reference to an edge: its ID, which is its
// slab slot, in 4 bytes.
type edgeRef uint32

// edgeFits reports whether an edge's ID and endpoints are representable in
// the slab: each must lie in [0, 2^32-1]. Restore paths check it so a
// corrupt snapshot or record fails loudly instead of truncating.
func edgeFits(e *Edge) bool {
	return e.ID >= 0 && e.Src >= 0 && e.Dst >= 0 &&
		uint64(e.ID) <= maxSlabID && uint64(e.Src) <= maxSlabID && uint64(e.Dst) <= maxSlabID
}
