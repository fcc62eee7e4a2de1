// Package persist makes the epoch-versioned graph durable. It combines two
// artifacts on disk:
//
//   - Snapshots: versioned binary files holding a consistent point-in-time
//     copy of the whole graph — vertices with their entity rows, edges with
//     their fact rows, and the mutation epoch — split by element ID into a
//     fixed number of independent CRC-protected sections, so snapshot
//     encode/decode parallelizes across sections.
//
//   - A write-ahead log (WAL): an append-only sequence of CRC-framed
//     mutation records (one per graph write, batch writes log one record)
//     with group-commit buffering, so bulk ingest amortizes fsyncs.
//
// Vertices are encoded with their fixed entity row (label, name, then an
// alias count and the aliases); edges with their fixed fact row
// (graph.FactRow), field by field. No record or section carries a key string.
// Every decoder reads a record or section to its last byte and refuses one
// with bytes left over.
//
// Recovery loads the newest valid snapshot and replays the WAL tail on top
// of it through graph.ApplyReplicated, the path a replica applies its
// leader's stream with. Replay is idempotent (records carry explicit IDs),
// so the WAL cut point does not need to align exactly with the snapshot; a
// torn or bit-flipped final record fails its CRC and truncates cleanly,
// losing at most that record. A background checkpointer rolls a fresh
// snapshot and prunes old log segments once the WAL exceeds a size budget.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"

	"nous/internal/graph"
)

// codec is a little append-only buffer with the encoders the snapshot and
// WAL formats share. All integers are varint-encoded except fixed-width
// format fields; strings and lists are length-prefixed.
//
// Strings go through str. A WAL record writes them inline. A snapshot element
// section sets syms, and str writes each string as a uvarint reference into
// the snapshot's symbol table section (strings sorted lexicographically,
// referenced by rank). The table is built deterministically from the snapshot
// contents, so equal graph state still encodes to byte-identical files, and
// repeated strings — predicates, type names, provenance values — are stored
// once per file instead of once per element. WAL records keep the inline
// encoding: they are written on the mutation path, where building a
// per-record table would cost more than it saves.
type codec struct {
	b    []byte
	syms map[string]uint32 // symbol references, for a snapshot element section
}

func (c *codec) bytes() []byte { return c.b }

func (c *codec) putUvarint(v uint64) { c.b = binary.AppendUvarint(c.b, v) }
func (c *codec) putVarint(v int64)   { c.b = binary.AppendVarint(c.b, v) }
func (c *codec) putFloat64(f float64) {
	c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(f))
}

func (c *codec) putString(s string) {
	c.putUvarint(uint64(len(s)))
	c.b = append(c.b, s...)
}

// str appends one element string: a symbol reference when syms is set,
// otherwise the string itself.
func (c *codec) str(s string) {
	if c.syms != nil {
		c.putUvarint(uint64(c.syms[s]))
	} else {
		c.putString(s)
	}
}

func (c *codec) putBool(v bool) {
	if v {
		c.b = append(c.b, 1)
	} else {
		c.b = append(c.b, 0)
	}
}

// putVertex encodes a vertex: its ID, label and name, then its alias count
// and aliases in insertion order.
func (c *codec) putVertex(v graph.Vertex) {
	c.putVarint(int64(v.ID))
	c.str(v.Label)
	c.str(v.Name)
	c.putUvarint(uint64(len(v.Aliases)))
	for _, a := range v.Aliases {
		c.str(a)
	}
}

// putEdge encodes an edge: its fixed fields, then its fact row's five
// strings and the curated flag as one byte.
func (c *codec) putEdge(e graph.Edge) {
	c.putVarint(int64(e.ID))
	c.putVarint(int64(e.Src))
	c.putVarint(int64(e.Dst))
	c.str(e.Label)
	c.putFloat64(e.Weight)
	c.putVarint(e.Timestamp)
	r := &e.Row
	c.str(r.Source)
	c.str(r.Doc)
	c.str(r.Sentence)
	c.str(r.SType)
	c.str(r.OType)
	c.putBool(r.Curated)
}

// decoder walks an encoded payload. Every read validates remaining length;
// the first malformed field poisons the decoder and err reports it. A
// decoder for a snapshot element section has syms set (non-nil, possibly
// empty), and its element strings are references into it.
type decoder struct {
	b    []byte
	off  int
	err  error
	syms []string
}

func newDecoder(b []byte) *decoder { return &decoder{b: b} }

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: truncated or corrupt %s at offset %d", what, d.off)
	}
}

// end fails the decoder unless the payload was read to its last byte. A
// CRC-valid payload with bytes after its last field was written in another
// layout, and reading its prefix would be a silent misread.
func (d *decoder) end(what string) {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("persist: %d trailing bytes after %s at offset %d", len(d.b)-d.off, what, d.off)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// count reads an element count and bounds it by the bytes left: every
// element takes at least one byte, so a corrupt count fails here instead of
// sizing an allocation. It returns 0 once the decoder has failed.
func (d *decoder) count(what string) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.fail(what)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *decoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) || d.b[d.off] > 1 {
		d.fail("bool")
		return false
	}
	d.off++
	return d.b[d.off-1] == 1
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+uint64n(n)])
	d.off += uint64n(n)
	return s
}

func uint64n(v uint64) int { return int(v) }

// str reads one element string written by codec.str.
func (d *decoder) str() string {
	if d.syms == nil {
		return d.string()
	}
	i := d.uvarint()
	if d.err != nil {
		return ""
	}
	if i >= uint64(len(d.syms)) {
		d.fail("symbol reference")
		return ""
	}
	return d.syms[i]
}

func (d *decoder) vertex() graph.Vertex {
	v := graph.Vertex{ID: graph.VertexID(d.varint()), Label: d.str(), Name: d.str()}
	if n := d.count("alias count"); n > 0 {
		v.Aliases = make([]string, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			v.Aliases = append(v.Aliases, d.str())
		}
	}
	return v
}

func (d *decoder) edge() graph.Edge {
	return graph.Edge{
		ID:        graph.EdgeID(d.varint()),
		Src:       graph.VertexID(d.varint()),
		Dst:       graph.VertexID(d.varint()),
		Label:     d.str(),
		Weight:    d.float64(),
		Timestamp: d.varint(),
		Row:       graph.FactRow{Source: d.str(), Doc: d.str(), Sentence: d.str(), SType: d.str(), OType: d.str(), Curated: d.bool()},
	}
}

// --- Mutation record encoding ---------------------------------------------

// encodeMutation serializes one graph mutation as a WAL record payload:
// kind byte, epoch uvarint, then kind-specific fields.
func encodeMutation(m graph.Mutation) []byte {
	c := &codec{b: make([]byte, 0, 64)}
	c.b = append(c.b, byte(m.Kind))
	c.putUvarint(m.Epoch)
	switch m.Kind {
	case graph.MutAddVertex:
		c.putVertex(m.Vertex)
	case graph.MutAddEdges:
		c.putUvarint(uint64(len(m.Edges)))
		for _, e := range m.Edges {
			c.putEdge(e)
		}
	case graph.MutRemoveEdge:
		c.putVarint(int64(m.EdgeID))
	case graph.MutSetVertexLabel:
		c.putVarint(int64(m.VertexID))
		c.putString(m.Label)
	case graph.MutAddVertexAlias:
		c.putVarint(int64(m.VertexID))
		c.putString(m.Alias)
	}
	return c.bytes()
}

// decodeMutation parses a WAL record payload.
func decodeMutation(b []byte) (graph.Mutation, error) {
	if len(b) == 0 {
		return graph.Mutation{}, fmt.Errorf("persist: empty mutation record")
	}
	m := graph.Mutation{Kind: graph.MutationKind(b[0])}
	d := newDecoder(b[1:])
	m.Epoch = d.uvarint()
	switch m.Kind {
	case graph.MutAddVertex:
		m.Vertex = d.vertex()
	case graph.MutAddEdges:
		n := d.count("edge count")
		m.Edges = make([]graph.Edge, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.Edges = append(m.Edges, d.edge())
		}
	case graph.MutRemoveEdge:
		m.EdgeID = graph.EdgeID(d.varint())
	case graph.MutSetVertexLabel:
		m.VertexID = graph.VertexID(d.varint())
		m.Label = d.string()
	case graph.MutAddVertexAlias:
		m.VertexID = graph.VertexID(d.varint())
		m.Alias = d.string()
	default:
		return m, fmt.Errorf("persist: unknown mutation kind %d", m.Kind)
	}
	d.end("record")
	if d.err != nil {
		return m, d.err
	}
	return m, nil
}
