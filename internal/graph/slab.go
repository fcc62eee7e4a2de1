package graph

import "nous/internal/graph/symtab"

// This file implements the columnar slab that stores edge records. Edges are
// not heap-allocated one by one; each shard appends them into fixed-size
// chunks of parallel arrays (one column per field), so a whole-graph edge
// scan is a sequential walk over dense memory and the per-edge footprint is
// the sum of the column widths (78 bytes, 45 of them the fact row) instead of
// a pointer-chased Edge struct plus allocator overhead. The row's doc and
// sentence strings are the only per-edge heap data outside the chunk.
//
// Chunks are fixed-size and never move once allocated, so a slot's address
// is stable for the graph's lifetime. Every slab is guarded by the graph's
// one lock (Graph.mu): writers hold it exclusively, readers shared.

const (
	// shardBits ties the edge-ID layout to the stripe count: an EdgeID is
	// seq<<shardBits | shard, because IDs are allocated round-robin from one
	// global counter. numShards (graph.go) must equal 1<<shardBits.
	shardBits = 4

	// chunkBits sizes slab chunks at 512 slots (~39KB of columns), small
	// enough that sparsely-used graphs don't overpay and large enough that
	// scans are effectively sequential.
	chunkBits = 9
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	// maxSlot bounds slots per shard so an edgeRef packs slot and shard into
	// one uint32: 28 bits of slot, shardBits of shard — ~268M edges per
	// shard, ~4.3B per graph.
	maxSlot = 1<<(32-shardBits) - 1

	// maxSlabVertex bounds vertex IDs representable in the slab's 32-bit
	// src/dst columns.
	maxSlabVertex = 1<<32 - 1
)

// edgeChunk is one fixed-capacity block of columnar edge storage. A slot's
// fields are immutable after insertion except the dead flag, which
// RemoveEdge sets (releasing the slot's strings with it). The fact-row
// columns (source through curated) are read only on demand, through
// EdgeScan's row accessors, so a scan that never reads provenance never
// touches them.
type edgeChunk struct {
	seq      [chunkSize]uint32       // EdgeID >> shardBits
	src      [chunkSize]uint32       // source VertexID (fits 32 bits, see maxSlabVertex)
	dst      [chunkSize]uint32       // destination VertexID
	label    [chunkSize]symtab.SymID // interned predicate
	weight   [chunkSize]float64
	ts       [chunkSize]int64
	dead     [chunkSize]bool // tombstone; dead slots are skipped by scans, reclaimed never (IDs are not reused)
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

// edgeSlab is one shard's append-only columnar edge store.
type edgeSlab struct {
	chunks []*edgeChunk
	len    uint32 // slots in use
}

// append claims the next slot, allocating a fresh chunk when the current one
// fills.
func (s *edgeSlab) append(seq uint32, src, dst VertexID, label symtab.SymID, weight float64, ts int64, row *FactRow) uint32 {
	slot := s.len
	if slot > maxSlot {
		panic("graph: edge slab full (2^28 edges in one shard)")
	}
	ci, off := int(slot>>chunkBits), int(slot&chunkMask)
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, &edgeChunk{})
	}
	c := s.chunks[ci]
	c.seq[off] = seq
	c.src[off] = uint32(src)
	c.dst[off] = uint32(dst)
	c.label[off] = label
	c.weight[off] = weight
	c.ts[off] = ts
	c.dead[off] = false
	c.curated[off] = row.Curated
	c.source[off] = symtab.Intern(row.Source)
	c.stype[off] = symtab.Intern(row.SType)
	c.otype[off] = symtab.Intern(row.OType)
	c.doc[off] = row.Doc
	c.sentence[off] = row.Sentence
	s.len = slot + 1
	return slot
}

// chunk resolves a slot to its chunk and in-chunk offset.
func (s *edgeSlab) chunk(slot uint32) (*edgeChunk, int) {
	return s.chunks[slot>>chunkBits], int(slot & chunkMask)
}

// edgeRef is a compact cross-shard edge reference: the owning shard index in
// the low shardBits, the slab slot above. Adjacency lists hold these 4-byte
// refs instead of *Edge pointers.
type edgeRef uint32

func makeRef(shardIdx int, slot uint32) edgeRef {
	return edgeRef(slot<<shardBits | uint32(shardIdx))
}

func (r edgeRef) shard() int   { return int(r & (numShards - 1)) }
func (r edgeRef) slot() uint32 { return uint32(r) >> shardBits }

// seqOf and idOf convert between an EdgeID and its per-shard dense sequence
// number. The single global allocator hands out IDs round-robin across
// shards, so seq = id >> shardBits is dense within each shard — which is
// what lets the seq→slot index be a flat slice instead of a map.
func seqOf(id EdgeID) uint32 { return uint32(uint64(id) >> shardBits) }
func idOf(si int, seq uint32) EdgeID {
	return EdgeID(uint64(seq)<<shardBits | uint64(si))
}

// edgeFits reports whether an edge's ID and endpoints are representable in
// the slab's packed columns. Always true for allocator-assigned IDs (the
// limits are 2^36 edges and 2^32 vertices); restore paths check it so a
// corrupt snapshot fails loudly instead of truncating.
func edgeFits(e *Edge) bool {
	return uint64(e.ID)>>shardBits <= 1<<32-1 &&
		uint64(e.Src) <= maxSlabVertex && uint64(e.Dst) <= maxSlabVertex &&
		e.Src >= 0 && e.Dst >= 0 && e.ID >= 0
}

// lookup resolves an edge seq to its slab slot.
func (s *shard) lookup(seq uint32) (uint32, bool) {
	if int(seq) >= len(s.idx) {
		return 0, false
	}
	v := s.idx[seq]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// setIdx records seq→slot. The index
// grows in exact chunk-sized steps (not append-doubling) so its footprint
// tracks the slab's instead of overshooting by up to 2×.
func (s *shard) setIdx(seq, slot uint32) {
	if int(seq) >= len(s.idx) {
		want := (int(seq)>>chunkBits + 1) << chunkBits
		next := make([]uint32, want)
		copy(next, s.idx)
		s.idx = next
	}
	s.idx[seq] = slot + 1
}

// clearIdx removes seq from the index.
func (s *shard) clearIdx(seq uint32) {
	if int(seq) < len(s.idx) {
		s.idx[seq] = 0
	}
}
