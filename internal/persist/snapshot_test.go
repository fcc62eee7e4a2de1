package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nous/internal/graph"
)

// TestSnapshotSymbolTableRoundTrip pins the v5 format: the symbol table is
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
	if v := binary.LittleEndian.Uint32(raw[8:]); v != 5 {
		t.Fatalf("version: want 5, got %d", v)
	}
	n := binary.LittleEndian.Uint64(raw[snapHeaderLen:])
	d := newDecoder(raw[snapHeaderLen+12 : snapHeaderLen+12+int(n)])
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
	for _, want := range []string{"Company", "Person", "acquired", "Apex", "apex inc", "wsj", "wsj-1", "Apex acquired Borealis."} {
		if !seen[want] {
			t.Errorf("symbol table missing %q", want)
		}
	}
	if seen["name"] || seen["aliases"] {
		t.Error("symbol table holds a property key")
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

// TestSnapshotGoldenV5 pins the v5 bytes. testdata/v5.snap is buildSample's
// graph and testdata/v5-wide.snap is buildWide's, each written with WAL cut
// 7 by the writer whose graph kept its storage in 16 stripes. Today's writer
// must reproduce both byte for byte, and the reader must restore each to a
// graph equal to the one built.
func TestSnapshotGoldenV5(t *testing.T) {
	for name, build := range map[string]func(*testing.T, *graph.Graph){"v5.snap": buildSample, "v5-wide.snap": buildWide} {
		g := graph.New()
		build(t, g)
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		path, _, err := writeSnapshot(t.TempDir(), g.Snapshot(), 7)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, golden) {
			t.Errorf("%s: the writer's %d bytes differ from the golden %d", name, len(raw), len(golden))
		}
		snap, walSeq, err := decodeSnapshot(golden, name)
		if err != nil {
			t.Fatal(err)
		}
		if walSeq != 7 {
			t.Errorf("%s: walSeq %d, want 7", name, walSeq)
		}
		restored := graph.New()
		if err := restoreSnapshot(restored, snap); err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, g, restored)
	}
}

// buildWide fills g with a graph whose element IDs span every snapshot
// section: 40 vertices, every third with an alias, and 300 edges added in
// batches of ten, every seventh removed again.
func buildWide(t *testing.T, g *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var vs []graph.VertexID
	for i := 0; i < 40; i++ {
		v := g.AddVertex([]string{"Company", "Person"}[i%2], fmt.Sprintf("v%d", i))
		if i%3 == 0 {
			g.AddVertexAlias(v, fmt.Sprintf("alias %d", i))
		}
		vs = append(vs, v)
	}
	for b := 0; b < 30; b++ {
		specs := make([]graph.EdgeSpec, 10)
		for i := range specs {
			specs[i] = graph.EdgeSpec{Src: vs[rng.Intn(len(vs))], Dst: vs[rng.Intn(len(vs))],
				Label: []string{"acquired", "employs", "founded"}[rng.Intn(3)], Weight: float64(rng.Intn(10)) / 10,
				Timestamp: 1700000000 + rng.Int63n(1_000_000), Row: graph.FactRow{Source: "wsj", Doc: fmt.Sprintf("d%d", b)}}
		}
		ids, err := g.AddEdges(specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if id%7 == 0 {
				g.RemoveEdge(id)
			}
		}
	}
}

// TestSnapshotDeterministic pins that equal graph state encodes to
// byte-identical files: the symbol table is sorted and vertex props are
// emitted in key order, so there is no map-iteration nondeterminism in the
// output.
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
// version-4 file (testdata/parent-v4.snap, buildSample's graph, with an
// alias, as the writer that stored vertex props as (key, value) lists wrote
// it), a version-6 header and a foreign section count are each refused, and
// Open over a
// directory whose only snapshot is such a file refuses to open, as it does
// when every snapshot is corrupt. Every header carries a valid header CRC,
// so the version and section checks are what refuse them.
func TestSnapshotRejectsForeignFormat(t *testing.T) {
	g := graph.New()
	buildSample(t, g)
	snap := g.Snapshot()
	path, _, err := writeSnapshot(t.TempDir(), snap, 5)
	if err != nil {
		t.Fatal(err)
	}
	v5, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	withHeader := func(at int, v uint32) []byte {
		raw := bytes.Clone(v5)
		binary.LittleEndian.PutUint32(raw[at:], v)
		binary.LittleEndian.PutUint32(raw[snapHeaderLen-4:], crc32.Checksum(raw[:snapHeaderLen-4], castagnoli))
		return raw
	}
	v4, err := os.ReadFile(filepath.Join("testdata", "parent-v4.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(v4[8:]); v != 4 {
		t.Fatalf("testdata/parent-v4.snap has version %d", v)
	}
	if _, _, err := decodeSnapshot(v4, "parent-v4.snap"); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 4") {
		t.Errorf("parent-v4.snap: err = %v, want unsupported snapshot version 4", err)
	}

	for name, raw := range map[string][]byte{
		"version 4":    v4,
		"version 6":    withHeader(8, 6),
		"8 sections":   withHeader(12, 8),
		"sections + 1": withHeader(12, snapSections+1),
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

// TestSnapshotHeaderCRC: one flipped bit in the header's epoch, vertex or
// edge allocator or WAL cut fails the header CRC. Open refuses that
// generation as it refuses a bad section CRC — falling back to an older
// one, or refusing to open when there is none — and a checkpoint's prune,
// which reads every retained snapshot's WAL cut, deletes no WAL segment on
// the strength of it. Before the header had a CRC, a flipped allocator bit
// was accepted and sized the next edge insert's index to the bogus ID.
func TestSnapshotHeaderCRC(t *testing.T) {
	for field, at := range map[string]int{"epoch": 16, "nextV": 24, "nextE": 32, "walSeq": 40} {
		dir := t.TempDir()
		g := graph.New()
		opt := testOptions()
		opt.RetainSnapshots = 2
		st := mustOpen(t, dir, g, opt)
		g.AddVertex("Company", "Apex")
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g.AddVertex("Company", "Borealis")
		snaps, _ := listSnapshots(dir)
		raw, err := os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		raw[at+6] ^= 0x10 // a high bit: a cut or allocator 2^52 too large
		if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeSnapshot(raw, field); err == nil {
			t.Errorf("%s: decodeSnapshot accepted a flipped header bit", field)
		}

		// The next checkpoint retains the damaged generation beside the new
		// one, and its prune must keep every WAL segment.
		walsBefore, _ := listWALs(dir)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		walsAfter, _ := listWALs(dir)
		for _, w := range walsBefore {
			if !slices.Contains(walsAfter, w) {
				t.Errorf("%s: prune deleted %s on a damaged snapshot's WAL cut", field, filepath.Base(w))
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// With the newer generation intact, Open falls back past nothing;
		// with it gone, the damaged one is the only candidate and Open
		// refuses.
		g2 := graph.New()
		st2 := mustOpen(t, dir, g2, opt)
		st2.Close()
		assertGraphsEqual(t, g, g2)
		snaps, _ = listSnapshots(dir)
		if err := os.Remove(snaps[0]); err != nil {
			t.Fatal(err)
		}
		if st, err := Open(dir, graph.New(), opt); err == nil {
			st.Close()
			t.Errorf("%s: Open succeeded over a snapshot with a flipped header bit", field)
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
		// One vertex (ID 0, label and name both symbol 0, the empty string)
		// whose alias count exceeds the section.
		"alias count": {{1, 0}, append([]byte{1, 0, 0, 0}, huge...)},
	} {
		raw := snapshotImage(sections[0], sections[1], 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := decodeSnapshot(raw, name)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want a refused %s", name, err, name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes", name, n)
		}
	}
}
