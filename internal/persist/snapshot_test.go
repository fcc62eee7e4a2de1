package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"nous/internal/graph"
)

// TestSnapshotSymbolTableRoundTrip pins the v2 format: the symbol table is
// the first framed section, holds every distinct string exactly once in
// sorted order, and decoding through it reproduces the graph bit-for-bit.
func TestSnapshotSymbolTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	buildSample(t, g)
	snap := g.Snapshot()

	path, _, err := writeSnapshot(dir, snap, 7)
	if err != nil {
		t.Fatal(err)
	}

	// Crack the file open by hand: header, then the symbol-table section.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != 2 {
		t.Fatalf("version: want 2, got %d", v)
	}
	n := binary.LittleEndian.Uint64(raw[48:])
	d := newDecoder(raw[60 : 60+int(n)])
	count := d.uvarint()
	syms := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		syms = append(syms, d.string())
	}
	if d.err != nil {
		t.Fatalf("decoding symbol table: %v", d.err)
	}
	seen := make(map[string]bool, len(syms))
	for i, s := range syms {
		if seen[s] {
			t.Errorf("symbol %q appears twice in table", s)
		}
		seen[s] = true
		if i > 0 && syms[i-1] >= s {
			t.Errorf("symbol table not strictly sorted at %d: %q >= %q", i, syms[i-1], s)
		}
	}
	for _, want := range []string{"Company", "Person", "acquired", "name", "Apex", "wsj"} {
		if !seen[want] {
			t.Errorf("symbol table missing %q", want)
		}
	}

	// Full round trip through the reader and the bulk restore path.
	got, walSeq, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if walSeq != 7 {
		t.Errorf("walSeq: want 7, got %d", walSeq)
	}
	g2 := graph.New()
	if err := restoreSnapshot(g2, got); err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

// TestSnapshotDeterministic pins that equal graph state encodes to
// byte-identical files: the symbol table is sorted and props are emitted in
// key order, so there is no map-iteration nondeterminism in the output.
func TestSnapshotDeterministic(t *testing.T) {
	g := graph.New()
	buildSample(t, g)
	snap := g.Snapshot()

	read := func() []byte {
		dir := t.TempDir()
		path, _, err := writeSnapshot(dir, snap, 3)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := read(), read()
	if !bytes.Equal(a, b) {
		t.Error("two snapshots of the same state differ byte-wise")
	}
}

// TestSnapshotRejectsForeignFormat pins the one snapshot format: a
// version-1 file (inline strings, no symbol-table section, readable until
// no writer of it was left), a version-3 header and a foreign shard count
// are each refused, and Open over a directory whose only snapshot is such a
// file refuses to open, as it does when every snapshot is corrupt.
func TestSnapshotRejectsForeignFormat(t *testing.T) {
	g := graph.New()
	buildSample(t, g)
	snap := g.Snapshot()
	path, _, err := writeSnapshot(t.TempDir(), snap, 5)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	withHeader := func(at int, v uint32) []byte {
		raw := bytes.Clone(v2)
		binary.LittleEndian.PutUint32(raw[at:], v)
		return raw
	}

	// A genuine version-1 file: the v2 header with version 1, then one
	// inline-string section per shard.
	v1 := bytes.NewBuffer(withHeader(8, 1)[:48])
	frame := make([]byte, 12)
	for i := range snap.Vertices {
		c := &codec{}
		c.putUvarint(uint64(len(snap.Vertices[i])))
		for _, v := range snap.Vertices[i] {
			c.putVertex(v)
		}
		c.putUvarint(uint64(len(snap.Edges[i])))
		for _, e := range snap.Edges[i] {
			c.putEdge(e)
		}
		p := c.bytes()
		binary.LittleEndian.PutUint64(frame[0:], uint64(len(p)))
		binary.LittleEndian.PutUint32(frame[8:], crc32.Checksum(p, castagnoli))
		v1.Write(frame)
		v1.Write(p)
	}

	for name, raw := range map[string][]byte{
		"version 1":  v1.Bytes(),
		"version 3":  withHeader(8, 3),
		"8 shards":   withHeader(12, 8),
		"shards + 1": withHeader(12, uint32(graph.ShardCount()+1)),
	} {
		if _, _, err := decodeSnapshot(raw, name); err == nil {
			t.Errorf("%s: decodeSnapshot accepted it", name)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName(snap.Epoch)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := Open(dir, graph.New(), testOptions()); err == nil {
			st.Close()
			t.Errorf("%s: Open succeeded over a foreign snapshot; want refusal", name)
		}
	}
}

// TestSnapshotCountsBoundedBySection: a symbol, vertex or edge count larger
// than the bytes left in its CRC-valid section fails the decode before it
// sizes an allocation. FuzzSnapshotSections found a 4-byte symbol section
// whose count asked for 1.6 GB; each count here asks for 16–64 MB.
func TestSnapshotCountsBoundedBySection(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<20)
	for name, sections := range map[string][2][]byte{
		"symbol count": {huge, {0, 0}},
		"vertex count": {{0}, huge},
		"edge count":   {{0}, append([]byte{0}, huge...)},
	} {
		raw := snapshotImage(sections[0], sections[1], 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := decodeSnapshot(raw, name)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded a section whose count exceeds its bytes", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes", name, n)
		}
	}
}
