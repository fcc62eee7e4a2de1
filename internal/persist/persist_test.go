package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nous/internal/graph"
	"nous/internal/temporal"
)

// testOptions flushes every record immediately and disables the background
// checkpointer so tests control exactly what is on disk.
func testOptions() Options {
	return Options{
		GroupCommitBytes:      1,
		FlushInterval:         time.Hour,
		WALSizeBudget:         1 << 30,
		DisableAutoCheckpoint: true,
	}
}

func mustOpen(t *testing.T, dir string, g *graph.Graph, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, g, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

// buildSample drives one of every mutation kind through a durable graph.
func buildSample(t *testing.T, g *graph.Graph) {
	t.Helper()
	a := g.AddVertex("Company", "Apex")
	b := g.AddVertex("Company", "Borealis")
	c := g.AddVertex("Any", "Cora")
	g.SetVertexLabel(c, "Person")
	g.AddVertexAlias(a, "apex inc")
	g.AddVertexAlias(a, "apex")
	if _, err := g.AddEdges([]graph.EdgeSpec{
		{Src: a, Dst: b, Label: "acquired", Weight: 0.9, Timestamp: 1700000000, Row: graph.FactRow{
			Source: "wsj", Doc: "wsj-1", Sentence: "Apex acquired Borealis.", SType: "Company", OType: "Company", Curated: true}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdges([]graph.EdgeSpec{
		{Src: b, Dst: c, Label: "employs", Weight: 0.5, Timestamp: 1700000100},
		{Src: c, Dst: a, Label: "founded", Weight: 1.0, Timestamp: -62135596800}, // zero-time provenance
	}); err != nil {
		t.Fatal(err)
	}
	e2, err := g.AddEdge(a, c, "partnersWith")
	if err != nil {
		t.Fatal(err)
	}
	g.RemoveEdge(e2)
}

// assertGraphsEqual compares full graph contents: vertex rows, edges
// with all fields, and the mutation epoch.
func assertGraphsEqual(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if we, ge := want.Epoch(), got.Epoch(); we != ge {
		t.Errorf("epoch: want %d, got %d", we, ge)
	}
	wv, gv := vertexIDs(want), vertexIDs(got)
	if !reflect.DeepEqual(wv, gv) {
		t.Fatalf("vertex IDs: want %v, got %v", wv, gv)
	}
	for _, id := range wv {
		w, _ := want.Vertex(id)
		g2, _ := got.Vertex(id)
		if !reflect.DeepEqual(w, g2) {
			t.Errorf("vertex %d: want %+v, got %+v", id, w, g2)
		}
	}
	we, ge := edgeIDs(want), edgeIDs(got)
	if !reflect.DeepEqual(we, ge) {
		t.Fatalf("edge IDs: want %v, got %v", we, ge)
	}
	for _, id := range we {
		w, _ := want.Edge(id)
		g2, _ := got.Edge(id)
		if !reflect.DeepEqual(w, g2) {
			t.Errorf("edge %d: want %+v, got %+v", id, w, g2)
		}
	}
}

// vertexIDs lists a graph's vertex IDs in ascending order.
func vertexIDs(g *graph.Graph) []graph.VertexID {
	var ids []graph.VertexID
	for _, v := range g.Snapshot().Vertices {
		ids = append(ids, v.ID)
	}
	slices.Sort(ids)
	return ids
}

// edgeIDs lists a graph's live edge IDs in ascending order.
func edgeIDs(g *graph.Graph) []graph.EdgeID {
	var ids []graph.EdgeID
	g.ScanEdges(func(e *graph.EdgeScan) bool {
		ids = append(ids, e.ID)
		return true
	})
	slices.Sort(ids)
	return ids
}

func TestMutationCodecRoundTrip(t *testing.T) {
	muts := []graph.Mutation{
		{Kind: graph.MutAddVertex, Epoch: 1, Vertex: graph.Vertex{ID: 7, Label: "Company", Name: "Apex", Aliases: []string{"apex inc", "apex"}}},
		{Kind: graph.MutAddVertex, Epoch: 2, Vertex: graph.Vertex{ID: 8, Label: "Person"}},
		{Kind: graph.MutAddVertexAlias, Epoch: 3, VertexID: 7, Alias: "apex holdings"},
		{Kind: graph.MutSetVertexLabel, Epoch: 4, VertexID: 8, Label: "Person"},
		{Kind: graph.MutAddEdges, Epoch: 5, Edges: []graph.Edge{
			{ID: 1, Src: 7, Dst: 8, Label: "employs", Weight: 0.25, Timestamp: -62135596800, Row: graph.FactRow{Doc: "d1", OType: "Person"}},
			{ID: 2, Src: 8, Dst: 7, Label: "founded", Weight: 1, Timestamp: 1700000000, Row: graph.FactRow{
				Source: "wsj", Doc: "d2", Sentence: "Cora founded Apex.", SType: "Person", OType: "Company", Curated: true}},
		}},
		{Kind: graph.MutRemoveEdge, Epoch: 6, EdgeID: 2},
	}
	for _, m := range muts {
		b := encodeMutation(m)
		got, err := decodeMutation(b)
		if err != nil {
			t.Fatalf("decode %v: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("kind %d: want %+v, got %+v", m.Kind, m, got)
		}
	}
}

func TestDecodeMutationRejectsGarbage(t *testing.T) {
	if _, err := decodeMutation(nil); err == nil {
		t.Error("empty record: want error")
	}
	// 2 was the generic vertex-property set, 5 and 6 the edge-property and
	// edge-weight updates: reserved, and unknown since vertices and facts
	// became fixed rows. Each payload is a property set's (vertex 0, "k", "v").
	for _, kind := range []byte{0, 2, 5, 6, 99} {
		if _, err := decodeMutation([]byte{kind, 1, 0, 1, 'k', 1, 'v'}); err == nil || !strings.Contains(err.Error(), "unknown mutation kind") {
			t.Errorf("kind %d: err = %v, want unknown mutation kind", kind, err)
		}
	}
	// A valid record truncated mid-payload must fail decode, not panic.
	full := encodeMutation(graph.Mutation{Kind: graph.MutAddVertex, Epoch: 1,
		Vertex: graph.Vertex{ID: 1, Label: "Company", Name: "Apex", Aliases: []string{"apex inc"}}})
	for cut := 1; cut < len(full); cut++ {
		if _, err := decodeMutation(full[:cut]); err == nil {
			t.Errorf("truncated at %d bytes: want error", cut)
		}
	}
	// An alias count beyond the record's bytes fails before it sizes the
	// alias slice: vertex 1, label "C", name "", then a count of 2^40.
	huge := binary.AppendUvarint([]byte{byte(graph.MutAddVertex), 1, 2, 1, 'C', 0}, 1<<40)
	if _, err := decodeMutation(huge); err == nil || !strings.Contains(err.Error(), "alias count") {
		t.Errorf("alias count 2^40: err = %v, want a refused alias count", err)
	}
}

// TestDecodersRefuseTrailingBytes: a CRC-valid record or snapshot section
// with bytes after its last field is refused, not read as its prefix. Each
// case decoded without error before the end-of-payload check.
func TestDecodersRefuseTrailingBytes(t *testing.T) {
	for _, m := range []graph.Mutation{
		{Kind: graph.MutAddVertex, Epoch: 1, Vertex: graph.Vertex{ID: 1, Label: "Company", Name: "Apex", Aliases: []string{"apex inc"}}},
		{Kind: graph.MutSetVertexLabel, Epoch: 2, VertexID: 1, Label: "Person"},
		{Kind: graph.MutAddVertexAlias, Epoch: 2, VertexID: 1, Alias: "apex"},
		{Kind: graph.MutAddEdges, Epoch: 3, Edges: []graph.Edge{{ID: 1, Src: 1, Dst: 1, Label: "x", Row: graph.FactRow{Doc: "d"}}}},
		{Kind: graph.MutRemoveEdge, Epoch: 4, EdgeID: 1},
	} {
		b := encodeMutation(m)
		if _, err := decodeMutation(b); err != nil {
			t.Fatalf("kind %d: %v", m.Kind, err)
		}
		if _, err := decodeMutation(append(b, 0xde, 0xad, 0xbe, 0xef)); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
			t.Errorf("kind %d with 4 junk bytes: err = %v, want trailing bytes", m.Kind, err)
		}
	}
	syms, shard := seedSections()
	if _, _, err := decodeSnapshot(snapshotImage(syms, shard, 0), "valid"); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"shard + 2":  snapshotImage(syms, append(bytes.Clone(shard), 0, 0), 0),
		"symbol + 3": snapshotImage(append(bytes.Clone(syms), 1, 'z', 0), shard, 0),
	} {
		if _, _, err := decodeSnapshot(raw, name); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
			t.Errorf("%s: err = %v, want trailing bytes", name, err)
		}
	}
}

// TestSnapshotRefusesMisfiledElements: an element section holding a vertex
// or edge whose ID % 16 is another section's is refused by the load. The
// writer never files an element there, so such a file is corrupt or forged.
func TestSnapshotRefusesMisfiledElements(t *testing.T) {
	syms, shard := seedSections() // vertices and edges 0 and 16: section 0
	snap, _, err := decodeSnapshot(snapshotImage(syms, shard, 5), "misfiled")
	if err == nil {
		err = restoreSnapshot(graph.New(), snap)
	}
	if err == nil {
		t.Error("a section holding another section's elements was loaded")
	}
}

// TestSnapshotRejectsVertexBeyondAllocator: a vertex at or above the
// header's vertex allocator (64 in snapshotImage) is refused by the load, as
// an edge beyond the edge allocator is, and nothing is loaded. The graph
// stores a vertex in the row its ID indexes, so a forged vertex at 2^40
// would otherwise size the rows to the ID.
func TestSnapshotRejectsVertexBeyondAllocator(t *testing.T) {
	for _, id := range []graph.VertexID{64, 1 << 40} { // both in section 0
		syms, shard := vertexSection(id)
		snap, _, err := decodeSnapshot(snapshotImage(syms, shard, 0), "beyond")
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New()
		if err := restoreSnapshot(g, snap); err == nil {
			t.Errorf("vertex %d loaded under a vertex allocator of 64", id)
		}
		if n := g.NumVertices(); n != 0 {
			t.Errorf("vertex %d: refused snapshot left %d vertices", id, n)
		}
	}
}

// TestReplayRefusesOldWALVersion: a version-2 segment is refused by replay
// and by Open, not misread. testdata/parent-v2.wal holds buildSample's
// records, with an alias, as the version-2 writer logged them, with each
// vertex's props as a (key, value) list and a generic property-set record.
func TestReplayRefusesOldWALVersion(t *testing.T) {
	dir := t.TempDir()
	path := copyParentWAL(t, dir)
	if _, _, err := replayWAL(graph.New(), path); err == nil || !strings.Contains(err.Error(), "unsupported WAL version 2") {
		t.Errorf("replayWAL: err = %v, want unsupported WAL version 2", err)
	}
	if st, err := Open(dir, graph.New(), testOptions()); err == nil || !strings.Contains(err.Error(), "unsupported WAL version 2") {
		if st != nil {
			st.Close()
		}
		t.Errorf("Open over a version-2 segment: err = %v, want unsupported WAL version 2", err)
	}
}

// copyParentWAL copies testdata/parent-v2.wal into dir as segment 0 and
// returns its path.
func copyParentWAL(t *testing.T, dir string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-v2.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walName(0))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	buildSample(t, g)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, testOptions())
	defer st2.Close()
	assertGraphsEqual(t, g, g2)
	if st2.Stats().ReplayedRecords == 0 {
		t.Error("expected WAL records to be replayed")
	}

	// New IDs must not collide with recovered ones.
	id := g2.AddVertex("Company", "")
	if g.HasVertex(id) {
		t.Errorf("new vertex ID %d collides with recovered ID space", id)
	}
}

func TestSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	buildSample(t, g)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().SnapshotEpoch != g.Epoch() {
		t.Errorf("snapshot epoch %d != graph epoch %d", st.Stats().SnapshotEpoch, g.Epoch())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, testOptions())
	defer st2.Close()
	assertGraphsEqual(t, g, g2)
	if n := st2.Stats().ReplayedRecords; n != 0 {
		t.Errorf("recovered from snapshot, yet replayed %d WAL records", n)
	}
}

func TestRecoveryAfterSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	buildSample(t, g)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes live only in the WAL tail.
	v := g.AddVertex("Company", "Delta")
	g.AddVertexAlias(v, "delta hf")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, testOptions())
	defer st2.Close()
	assertGraphsEqual(t, g, g2)
	if st2.Stats().ReplayedRecords != 2 {
		t.Errorf("replayed %d records, want 2", st2.Stats().ReplayedRecords)
	}
}

// lastWAL returns the path of the highest-sequence WAL segment.
func lastWAL(t *testing.T, dir string) string {
	t.Helper()
	wals, err := listWALs(dir)
	if err != nil || len(wals) == 0 {
		t.Fatalf("listWALs: %v (%d segments)", err, len(wals))
	}
	return wals[len(wals)-1]
}

func TestTornWALTailLosesOnlyFinalRecord(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	v := g.AddVertex("Company", "Apex")
	g.AddVertexAlias(v, "before")
	g.AddVertexAlias(v, "after") // the record the tear destroys
	preTearEpoch := g.Epoch() - 1
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear: cut into (not at the boundary of) the final record.
	path := lastWAL(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, testOptions())
	defer st2.Close()
	if got, _ := g2.Vertex(v); !slices.Equal(got.Aliases, []string{"before"}) {
		t.Errorf("aliases = %q, want the pre-tear %q", got.Aliases, []string{"before"})
	}
	if g2.Epoch() != preTearEpoch {
		t.Errorf("epoch = %d, want %d", g2.Epoch(), preTearEpoch)
	}
	if st2.Stats().ReplayedRecords != 2 {
		t.Errorf("replayed %d records, want 2", st2.Stats().ReplayedRecords)
	}
	// The tear must have been truncated away: re-recovery sees a clean log.
	if fi2, _ := os.Stat(path); fi2.Size() >= fi.Size()-3 {
		t.Errorf("torn segment not truncated: %d bytes, want < %d", fi2.Size(), fi.Size()-3)
	}
}

func TestBitFlippedWALTailLosesOnlyFinalRecord(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	v := g.AddVertex("Company", "Apex")
	g.AddVertexAlias(v, "before")
	g.AddVertexAlias(v, "after")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	path := lastWAL(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40 // flip a bit inside the final record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, testOptions())
	defer st2.Close()
	if got, _ := g2.Vertex(v); !slices.Equal(got.Aliases, []string{"before"}) {
		t.Errorf("aliases = %q, want %q (corrupt record dropped)", got.Aliases, []string{"before"})
	}
	if st2.Stats().ReplayedRecords != 2 {
		t.Errorf("replayed %d records, want 2", st2.Stats().ReplayedRecords)
	}
}

func TestCorruptSnapshotFallsBackToOlderGeneration(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	g.AddVertex("Company", "Apex")
	if err := st.Checkpoint(); err != nil { // generation 1
		t.Fatal(err)
	}
	g.AddVertex("Company", "Borealis")
	if err := st.Checkpoint(); err != nil { // generation 2
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshots, got %d (%v)", len(snaps), err)
	}
	// Corrupt the newest snapshot's first shard payload.
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[60] ^= 0xff
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, testOptions())
	defer st2.Close()
	// The older snapshot plus the surviving WAL tail must still reach the
	// full pre-close state: generation 1 lacks Borealis, but the segment
	// holding Borealis's insertion is at or after generation 1's cut.
	if want, got := g.NumVertices(), g2.NumVertices(); want != got {
		t.Errorf("vertices after fallback: want %d, got %d", want, got)
	}
}

func TestOpenRefusesWhenEverySnapshotIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	g.AddVertex("Company", "Apex")
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(dir)
	for _, p := range snaps {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[52] ^= 0xff // inside the first shard frame/payload
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, graph.New(), testOptions()); err == nil {
		t.Fatal("Open succeeded with every snapshot corrupt; want refusal, not a silently gutted store")
	}
}

func TestCheckpointPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	opt := testOptions()
	opt.RetainSnapshots = 2
	st := mustOpen(t, dir, g, opt)
	for i := 0; i < 5; i++ {
		g.AddVertex("Company", "")
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 2 {
		t.Errorf("retained %d snapshots, want 2", len(snaps))
	}
	wals, _ := listWALs(dir)
	// Segments older than the oldest retained snapshot's cut are gone:
	// with 5 checkpoints the live segment is seq 5 and the retained cuts
	// are seqs 4 and 5, so at most seqs 4 and 5 remain.
	if len(wals) > 2 {
		t.Errorf("retained %d WAL segments, want <= 2", len(wals))
	}
	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, opt)
	defer st2.Close()
	assertGraphsEqual(t, g, g2)
}

func TestAutoCheckpointOnWALBudget(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	opt := testOptions()
	opt.DisableAutoCheckpoint = false
	opt.WALSizeBudget = 512
	opt.FlushInterval = 5 * time.Millisecond
	st := mustOpen(t, dir, g, opt)
	for i := 0; i < 200; i++ {
		g.AddVertex("Company", "padding-padding-padding")
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st.Stats().Checkpoints == 0 {
		t.Error("no automatic checkpoint despite exceeding the WAL budget")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, opt)
	defer st2.Close()
	assertGraphsEqual(t, g, g2)
}

func TestConcurrentIngestWhileCheckpointing(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	opt := testOptions()
	st := mustOpen(t, dir, g, opt)

	const writers, perWriter = 4, 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					a := g.AddVertex("Company", "x")
					b := g.AddVertex("Person", "")
					if _, err := g.AddEdges([]graph.EdgeSpec{{Src: a, Dst: b, Label: "employs", Weight: 1}}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}()
	for {
		select {
		case <-done:
			goto finished
		default:
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
finished:
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.LastError != "" {
		t.Fatalf("background persistence error: %s", s.LastError)
	}

	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, opt)
	defer st2.Close()
	assertGraphsEqual(t, g, g2)
	if g2.NumVertices() != writers*perWriter*2 {
		t.Errorf("vertices = %d, want %d", g2.NumVertices(), writers*perWriter*2)
	}
}

func TestOpenOnFreshDirIsEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	defer st.Close()
	if g.NumVertices() != 0 || g.Epoch() != 0 {
		t.Errorf("fresh store: %d vertices, epoch %d", g.NumVertices(), g.Epoch())
	}
	s := st.Stats()
	if s.WALSeq != 0 || s.SnapshotEpoch != 0 {
		t.Errorf("fresh stats = %+v", s)
	}
}

// TestIdleReopensLeaveOneEmptySegment opens and closes one directory four
// times with no write in between. Each open replaces the header-only segment
// the one before it left, so the directory ends with one such segment, not
// four, and the graph and its epoch are unchanged. A write after the
// reopens lands in that segment, and a WALCursor reads every record with no
// sequence gap.
func TestIdleReopensLeaveOneEmptySegment(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	buildSample(t, g)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.AddVertex("Company", "Delta") // the tail above the snapshot's cut
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		g2 := graph.New()
		st2 := mustOpen(t, dir, g2, testOptions())
		assertGraphsEqual(t, g, g2)
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	wals, err := listWALs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var empty []string
	for _, p := range wals {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == walHeaderSize {
			empty = append(empty, filepath.Base(p))
		}
	}
	if len(wals) != 2 || len(empty) != 1 {
		t.Fatalf("after 4 idle reopens: segments %d, header-only %v; want 2 and 1", len(wals), empty)
	}

	g3 := graph.New()
	st3 := mustOpen(t, dir, g3, testOptions())
	defer st3.Close()
	assertGraphsEqual(t, g, g3)
	g3.AddVertex("Company", "Epsilon")
	if err := st3.Sync(); err != nil {
		t.Fatal(err)
	}
	cur, err := OpenWALCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	records := 0
	for {
		_, err := cur.Next()
		if errors.Is(err, ErrCaughtUp) {
			break
		}
		if err != nil {
			t.Fatalf("cursor after %d records: %v", records, err)
		}
		records++
	}
	if records != 2 {
		t.Errorf("cursor read %d records, want 2 (Delta and Epsilon)", records)
	}
}

// TestReplayRemoveAndReaddKeepsTimeIndexConsistent mixes edge removals with
// re-added edges across a WAL-only recovery and a snapshot+tail recovery,
// then verifies a temporal index rebuilt from the recovered graph matches
// the recovered edge set exactly — the invariant nous relies on when it
// re-attaches the time index after Open.
func TestReplayRemoveAndReaddKeepsTimeIndexConsistent(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())

	a := g.AddVertex("Company", "Apex")
	b := g.AddVertex("Company", "Borealis")
	var ids []graph.EdgeID
	for ts := int64(100); ts < 110; ts++ {
		got, err := g.AddEdges([]graph.EdgeSpec{{Src: a, Dst: b, Label: "acquired", Weight: 1, Timestamp: ts}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got[0])
	}
	// Remove a few, then re-add edges at the same timestamps (fresh IDs) —
	// the shape eviction + re-extraction produces.
	for _, id := range []graph.EdgeID{ids[1], ids[4], ids[7]} {
		if !g.RemoveEdge(id) {
			t.Fatalf("RemoveEdge(%d) failed", id)
		}
	}
	if _, err := g.AddEdges([]graph.EdgeSpec{
		{Src: a, Dst: b, Label: "acquired", Weight: 1, Timestamp: 101},
		{Src: b, Dst: a, Label: "partnersWith", Weight: 1, Timestamp: 104},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	verify := func(t *testing.T, g2 *graph.Graph) {
		t.Helper()
		assertGraphsEqual(t, g, g2)
		ix := temporal.NewIndex(g2)
		if ix.Len() != g2.NumEdges() {
			t.Fatalf("index %d edges, graph %d", ix.Len(), g2.NumEdges())
		}
		prev := int64(math.MinInt64)
		for _, id := range ix.EdgesIn(temporal.All()) {
			e, ok := g2.Edge(id)
			if !ok {
				t.Fatalf("index references missing edge %d", id)
			}
			if e.Timestamp < prev {
				t.Fatalf("index out of time order at edge %d", id)
			}
			prev = e.Timestamp
		}
		// The removed timestamps' counts reflect removals and re-adds.
		if n := len(ix.EdgesIn(temporal.Window{Since: 101, Until: 102})); n != 1 {
			t.Fatalf("ts=101 count = %d, want 1 (one removed, one re-added)", n)
		}
		if n := len(ix.EdgesIn(temporal.Window{Since: 107, Until: 108})); n != 0 {
			t.Fatalf("ts=107 count = %d, want 0 (removed)", n)
		}
	}

	// WAL-only recovery.
	g2 := graph.New()
	st2 := mustOpen(t, dir, g2, testOptions())
	verify(t, g2)

	// Roll a snapshot, add one more remove on top, recover snapshot+tail.
	if err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g2.RemoveEdge(ids[0]) // ts=100, logged in the tail segment
	g.RemoveEdge(ids[0])  // mirror on the reference graph
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	g3 := graph.New()
	st3 := mustOpen(t, dir, g3, testOptions())
	defer st3.Close()
	verify(t, g3)
	if ix := temporal.NewIndex(g3); len(ix.EdgesIn(temporal.Window{Since: 100, Until: 101})) != 0 {
		t.Fatal("tail-replayed removal not reflected in time index")
	}
}

// TestOpenRejectsVertexBeyondAllocator: a CRC-valid WAL record adding a
// vertex beyond the vertex allocator is refused by replay, as a replica
// refuses it, before it sizes the graph's vertex rows to the ID.
func TestOpenRejectsVertexBeyondAllocator(t *testing.T) {
	dir := t.TempDir()
	w, err := createWAL(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.Mutation{
		{Kind: graph.MutAddVertex, Epoch: 1, Vertex: graph.Vertex{ID: 0, Label: "V"}},
		{Kind: graph.MutAddVertex, Epoch: 2, Vertex: graph.Vertex{ID: 1 << 40, Label: "V"}},
	} {
		if _, err := w.Append(encodeMutation(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	if st, err := Open(dir, g, testOptions()); err == nil {
		st.Close()
		t.Fatal("Open replayed a vertex 1<<40 onto a graph whose vertex allocator was at 1")
	}
	if n := g.NumVertices(); n != 1 {
		t.Fatalf("refused record left %d vertices, want 1", n)
	}
}

// TestOpenRejectsEdgeBeyondAllocator: replay applies records through
// graph.ApplyReplicated, so a CRC-valid WAL record whose edge ID lies beyond
// the edge allocator is refused, as a replica refuses it, instead of sizing
// a stripe's seq index to the ID. A fuzzed 22-byte record with an edge ID
// near 4.2e10 asked for ≈ 10 GB that way; 1<<20 asks for ≈ 256 KiB and
// shows the same fault.
func TestOpenRejectsEdgeBeyondAllocator(t *testing.T) {
	dir := t.TempDir()
	w, err := createWAL(dir, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.Mutation{
		{Kind: graph.MutAddVertex, Epoch: 1, Vertex: graph.Vertex{ID: 0, Label: "V"}},
		{Kind: graph.MutAddVertex, Epoch: 2, Vertex: graph.Vertex{ID: 1, Label: "V"}},
		{Kind: graph.MutAddEdges, Epoch: 3, Edges: []graph.Edge{{ID: 1 << 20, Src: 0, Dst: 1, Label: "x"}}},
	} {
		if _, err := w.Append(encodeMutation(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	if st, err := Open(dir, g, testOptions()); err == nil {
		st.Close()
		t.Fatal("Open replayed an edge 1<<20 onto a graph whose edge allocator was at 0")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("refused record left %d edges", g.NumEdges())
	}
}
