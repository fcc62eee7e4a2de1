package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sort"
	"testing"

	"nous/internal/graph"
)

// smallGraph is the graph a fuzzed record applies to: four vertices, the
// first with an alias, and four edges, so records that name existing IDs
// reach the update paths.
func smallGraph(t *testing.T) *graph.Graph {
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddVertex("V", string(rune('a'+i)))
	}
	g.AddVertexAlias(0, "ay")
	for i := 0; i < 4; i++ {
		if _, err := g.AddEdges([]graph.EdgeSpec{{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % 4), Label: "x", Weight: 1, Timestamp: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// FuzzDecodeRecord: decoding any payload does not panic; a record that
// decodes applies to a small graph through graph.ApplyReplicated without a
// panic; and decoding is a fixed point of re-encoding. Mutations compare by
// their encodings, which hold every field bit for bit: a NaN weight is not
// reflect.DeepEqual to itself.
func FuzzDecodeRecord(f *testing.F) {
	for _, m := range []graph.Mutation{
		{Kind: graph.MutAddVertex, Epoch: 9, Vertex: graph.Vertex{ID: 4, Label: "Company", Name: "Apex"}},
		{Kind: graph.MutSetVertexLabel, Epoch: 10, VertexID: 1, Label: "Company"},
		{Kind: graph.MutAddEdges, Epoch: 11, Edges: []graph.Edge{
			{ID: 4, Src: 0, Dst: 2, Label: "acquired", Weight: 0.5, Timestamp: 1700000000, Row: graph.FactRow{
				Source: "wsj", Doc: "wsj-1", Sentence: "a acquired c.", SType: "Company", OType: "Company"}},
			{ID: 5, Src: 2, Dst: 0, Label: "founded", Weight: 1, Row: graph.FactRow{Curated: true}},
		}},
		{Kind: graph.MutRemoveEdge, Epoch: 12, EdgeID: 2},
		// A vertex far beyond the allocator, which would size the graph's
		// vertex rows to its ID were it not refused.
		{Kind: graph.MutAddVertex, Epoch: 13, Vertex: graph.Vertex{ID: 1 << 40, Label: "V"}},
	} {
		f.Add(encodeMutation(m))
	}
	// The record that sized a seq index to edge ID ≈ 4.2e10 before the
	// allocator bound: an AddEdges of one self-edge on vertex 0, whose fact
	// row is five empty strings and a false curated byte.
	f.Add([]byte{3, 4, 1, 0xbc, 0xbc, 0xbc, 0xbc, 0xbc, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeMutation(payload)
		if err != nil {
			return
		}
		enc := encodeMutation(m)
		again, err := decodeMutation(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(encodeMutation(again), enc) {
			t.Fatalf("decode(encode(decode(x))) = %+v, decode(x) = %+v", again, m)
		}
		_ = smallGraph(t).ApplyReplicated(m) // may refuse the record; must not panic
	})
}

// snapshotImage frames a symbol-table payload and one element-section
// payload, section si, into a snapshot with valid CRCs, so a fuzzed payload
// gets past the checksums. Every other section holds the empty payload (no
// vertices, no edges). The header's edge allocator is 64, which bounds the edge IDs a
// restore accepts.
func snapshotImage(syms, shard []byte, si int) []byte {
	raw := []byte(snapMagic)
	raw = binary.LittleEndian.AppendUint32(raw, snapVersion)
	raw = binary.LittleEndian.AppendUint32(raw, snapSections)
	for _, v := range []uint64{1, 64, 64, 0} { // epoch, nextV, nextE, walSeq
		raw = binary.LittleEndian.AppendUint64(raw, v)
	}
	raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(raw, castagnoli))
	frame := func(p []byte) {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(len(p)))
		raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(p, castagnoli))
		raw = append(raw, p...)
	}
	frame(syms)
	for i := 0; i < snapSections; i++ {
		if i == si {
			frame(shard)
		} else {
			frame([]byte{0, 0})
		}
	}
	return raw
}

// seedSections returns a valid symbol-table section and section-0 payload:
// vertices 0 and 16, with one and two aliases, and edges 0 and 16, all
// in section 0.
func seedSections() (syms, shard []byte) {
	table := []string{"", "V", "a", "ay", "b", "bee", "d1", "wsj", "x"}
	sort.Strings(table)
	index := make(map[string]uint32, len(table))
	symc := &codec{}
	symc.putUvarint(uint64(len(table)))
	for i, s := range table {
		index[s] = uint32(i)
		symc.putString(s)
	}
	c := &codec{syms: index}
	c.putUvarint(2)
	c.putVertex(graph.Vertex{ID: 0, Label: "V", Name: "a", Aliases: []string{"ay"}})
	c.putVertex(graph.Vertex{ID: 16, Label: "V", Name: "b", Aliases: []string{"bee", "b"}})
	c.putUvarint(2)
	c.putEdge(graph.Edge{ID: 0, Src: 0, Dst: 16, Label: "x", Weight: 0.5, Timestamp: 7,
		Row: graph.FactRow{Source: "wsj", Doc: "d1", SType: "V"}})
	c.putEdge(graph.Edge{ID: 16, Src: 16, Dst: 0, Label: "x", Weight: 1, Row: graph.FactRow{Curated: true}})
	return symc.bytes(), c.bytes()
}

// vertexSection returns a valid symbol-table section and an element section
// holding one vertex, id, labelled and named "V", and no edge.
func vertexSection(id graph.VertexID) (syms, shard []byte) {
	symc := &codec{}
	symc.putUvarint(1)
	symc.putString("V")
	c := &codec{syms: map[string]uint32{"V": 0}}
	c.putUvarint(1)
	c.putVertex(graph.Vertex{ID: id, Label: "V", Name: "V"})
	c.putUvarint(0)
	return symc.bytes(), c.bytes()
}

// FuzzSnapshotSections: decodeSnapshot followed by restoreSnapshot never
// panics on sections that pass their CRC, whatever they hold.
func FuzzSnapshotSections(f *testing.F) {
	syms, shard := seedSections()
	f.Add(syms, shard, uint8(0))
	f.Add(syms, shard, uint8(5))
	f.Add([]byte{0}, []byte{0, 0}, uint8(0))
	// One vertex whose alias count (2^20) exceeds its section.
	f.Add([]byte{1, 0}, binary.AppendUvarint([]byte{1, 0, 0, 0}, 1<<20), uint8(0))
	// One vertex at 2^40, far beyond the header's vertex allocator.
	syms, shard = vertexSection(1 << 40)
	f.Add(syms, shard, uint8(0))
	f.Fuzz(func(t *testing.T, syms, shard []byte, si uint8) {
		snap, _, err := decodeSnapshot(snapshotImage(syms, shard, int(si)%snapSections), "fuzz")
		if err != nil {
			return
		}
		_ = restoreSnapshot(graph.New(), snap) // may refuse the sections; must not panic
	})
}
