// Package persist makes the sharded, epoch-versioned graph durable. It
// combines two artifacts on disk:
//
//   - Snapshots: versioned binary files holding a consistent point-in-time
//     copy of the whole graph — vertices, properties, edges, and the
//     mutation epoch — with each of the store's stripes encoded as an
//     independent CRC-protected section, so snapshot encode/decode
//     parallelizes across stripes.
//
//   - A write-ahead log (WAL): an append-only sequence of CRC-framed
//     mutation records (one per graph write, batch writes log one record)
//     with group-commit buffering, so bulk ingest amortizes fsyncs.
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
	"sort"

	"nous/internal/graph"
)

// codec is a little append-only buffer with the primitive encoders the
// snapshot and WAL formats share. All integers are varint-encoded except
// fixed-width format fields; strings and maps are length-prefixed.
type codec struct{ b []byte }

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

func (c *codec) putProps(p map[string]string) {
	c.putUvarint(uint64(len(p)))
	// Deterministic order is not required for correctness (props restore to
	// a map), but sorted keys make snapshots byte-stable for equal state.
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.putString(k)
		c.putString(p[k])
	}
}

func (c *codec) putVertex(v graph.Vertex) {
	c.putVarint(int64(v.ID))
	c.putString(v.Label)
	c.putProps(v.Props)
}

func (c *codec) putEdge(e graph.Edge) {
	c.putVarint(int64(e.ID))
	c.putVarint(int64(e.Src))
	c.putVarint(int64(e.Dst))
	c.putString(e.Label)
	c.putFloat64(e.Weight)
	c.putVarint(e.Timestamp)
	c.putProps(e.Props)
}

// --- Symbol-referenced encoding (snapshots) --------------------------------
//
// Snapshot payloads do not embed strings inline: every label, property
// key and property value is a uvarint reference into the snapshot's symbol
// table section (strings sorted lexicographically, referenced by rank). The
// table is built deterministically from the snapshot contents, so equal
// graph state still encodes to byte-identical files, and repeated strings —
// predicates, type names, provenance values — are stored once per file
// instead of once per element. WAL records keep the inline string
// encoding: they are written on the mutation path where building a
// per-record table would cost more than it saves.

// putSym appends one symbol reference.
func (c *codec) putSym(tab map[string]uint32, s string) { c.putUvarint(uint64(tab[s])) }

// putPropsSym encodes a props map as (keyRef, valueRef) pairs. Keys are
// emitted in sorted-string order, which — because symbol IDs are assigned in
// lexicographic order — is also ascending reference order.
func (c *codec) putPropsSym(tab map[string]uint32, p map[string]string) {
	c.putUvarint(uint64(len(p)))
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.putSym(tab, k)
		c.putSym(tab, p[k])
	}
}

func (c *codec) putVertexSym(tab map[string]uint32, v graph.Vertex) {
	c.putVarint(int64(v.ID))
	c.putSym(tab, v.Label)
	c.putPropsSym(tab, v.Props)
}

func (c *codec) putEdgeSym(tab map[string]uint32, e graph.Edge) {
	c.putVarint(int64(e.ID))
	c.putVarint(int64(e.Src))
	c.putVarint(int64(e.Dst))
	c.putSym(tab, e.Label)
	c.putFloat64(e.Weight)
	c.putVarint(e.Timestamp)
	c.putPropsSym(tab, e.Props)
}

// decoder walks an encoded payload. Every read validates remaining length;
// the first malformed field poisons the decoder and err reports it.
type decoder struct {
	b   []byte
	off int
	err error
}

func newDecoder(b []byte) *decoder { return &decoder{b: b} }

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: truncated or corrupt %s at offset %d", what, d.off)
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

func (d *decoder) props() map[string]string {
	n := d.count("props count")
	if n == 0 {
		return nil
	}
	p := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := d.string()
		v := d.string()
		if d.err != nil {
			return nil
		}
		p[k] = v
	}
	return p
}

// sym resolves one symbol reference against the snapshot's decoded table.
func (d *decoder) sym(syms []string) string {
	i := d.uvarint()
	if d.err != nil {
		return ""
	}
	if i >= uint64(len(syms)) {
		d.fail("symbol reference")
		return ""
	}
	return syms[i]
}

func (d *decoder) propsSym(syms []string) map[string]string {
	n := d.count("props count")
	if n == 0 {
		return nil
	}
	p := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := d.sym(syms)
		v := d.sym(syms)
		if d.err != nil {
			return nil
		}
		p[k] = v
	}
	return p
}

func (d *decoder) vertexSym(syms []string) graph.Vertex {
	return graph.Vertex{
		ID:    graph.VertexID(d.varint()),
		Label: d.sym(syms),
		Props: d.propsSym(syms),
	}
}

func (d *decoder) edgeSym(syms []string) graph.Edge {
	return graph.Edge{
		ID:        graph.EdgeID(d.varint()),
		Src:       graph.VertexID(d.varint()),
		Dst:       graph.VertexID(d.varint()),
		Label:     d.sym(syms),
		Weight:    d.float64(),
		Timestamp: d.varint(),
		Props:     d.propsSym(syms),
	}
}

func (d *decoder) vertex() graph.Vertex {
	return graph.Vertex{
		ID:    graph.VertexID(d.varint()),
		Label: d.string(),
		Props: d.props(),
	}
}

func (d *decoder) edge() graph.Edge {
	return graph.Edge{
		ID:        graph.EdgeID(d.varint()),
		Src:       graph.VertexID(d.varint()),
		Dst:       graph.VertexID(d.varint()),
		Label:     d.string(),
		Weight:    d.float64(),
		Timestamp: d.varint(),
		Props:     d.props(),
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
	case graph.MutSetVertexProp:
		c.putVarint(int64(m.VertexID))
		c.putString(m.Key)
		c.putString(m.Value)
	case graph.MutAddEdges:
		c.putUvarint(uint64(len(m.Edges)))
		for _, e := range m.Edges {
			c.putEdge(e)
		}
	case graph.MutRemoveEdge:
		c.putVarint(int64(m.EdgeID))
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
	case graph.MutSetVertexProp:
		m.VertexID = graph.VertexID(d.varint())
		m.Key = d.string()
		m.Value = d.string()
	case graph.MutAddEdges:
		n := d.count("edge count")
		m.Edges = make([]graph.Edge, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.Edges = append(m.Edges, d.edge())
		}
	case graph.MutRemoveEdge:
		m.EdgeID = graph.EdgeID(d.varint())
	default:
		return m, fmt.Errorf("persist: unknown mutation kind %d", m.Kind)
	}
	if d.err != nil {
		return m, d.err
	}
	return m, nil
}
