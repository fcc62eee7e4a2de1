package persist

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	a := g.AddVertexWithProps("Company", map[string]string{"name": "Apex"})
	b := g.AddVertexWithProps("Company", map[string]string{"name": "Borealis"})
	c := g.AddVertex("Person")
	g.SetVertexProp(c, "name", "Cora")
	e1, err := g.AddEdgeFull(a, b, "acquired", 0.9, 1700000000, map[string]string{"source": "wsj"})
	if err != nil {
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
	g.SetEdgeWeight(e1, 0.95)
	g.SetEdgeProp(e1, "sentence", "Apex acquired Borealis.")
	g.RemoveEdge(e2)
}

// assertGraphsEqual compares full graph contents: vertices with props, edges
// with all fields, and the mutation epoch.
func assertGraphsEqual(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if we, ge := want.Epoch(), got.Epoch(); we != ge {
		t.Errorf("epoch: want %d, got %d", we, ge)
	}
	wv, gv := want.VertexIDs(), got.VertexIDs()
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
		{Kind: graph.MutAddVertex, Epoch: 1, Vertex: graph.Vertex{ID: 7, Label: "Company", Props: map[string]string{"name": "Apex", "type": "Company"}}},
		{Kind: graph.MutAddVertex, Epoch: 2, Vertex: graph.Vertex{ID: 8, Label: "Person"}},
		{Kind: graph.MutSetVertexProp, Epoch: 3, VertexID: 7, Key: "aliases", Value: "apex\x1fapex inc"},
		{Kind: graph.MutAddEdges, Epoch: 4, Edges: []graph.Edge{
			{ID: 1, Src: 7, Dst: 8, Label: "employs", Weight: 0.25, Timestamp: -62135596800, Props: map[string]string{"source": ""}},
			{ID: 2, Src: 8, Dst: 7, Label: "founded", Weight: 1, Timestamp: 1700000000},
		}},
		{Kind: graph.MutRemoveEdge, Epoch: 5, EdgeID: 2},
		{Kind: graph.MutSetEdgeProp, Epoch: 6, EdgeID: 1, Key: "sentence", Value: "quoted \"text\""},
		{Kind: graph.MutSetEdgeWeight, Epoch: 7, EdgeID: 1, Weight: 0.125},
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
	if _, err := decodeMutation([]byte{99, 1}); err == nil {
		t.Error("unknown kind: want error")
	}
	// A valid record truncated mid-payload must fail decode, not panic.
	full := encodeMutation(graph.Mutation{Kind: graph.MutAddVertex, Epoch: 1,
		Vertex: graph.Vertex{ID: 1, Label: "Company", Props: map[string]string{"name": "Apex"}}})
	for cut := 1; cut < len(full); cut++ {
		if _, err := decodeMutation(full[:cut]); err == nil {
			t.Errorf("truncated at %d bytes: want error", cut)
		}
	}
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
	id := g2.AddVertex("Company")
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
	v := g.AddVertexWithProps("Company", map[string]string{"name": "Delta"})
	g.SetVertexProp(v, "hq", "Reykjavik")
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
	v := g.AddVertexWithProps("Company", map[string]string{"name": "Apex"})
	g.SetVertexProp(v, "status", "before")
	g.SetVertexProp(v, "status", "after") // the record the tear destroys
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
	if got, _ := g2.VertexProp(v, "status"); got != "before" {
		t.Errorf("status = %q, want pre-tear value %q", got, "before")
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
	v := g.AddVertexWithProps("Company", map[string]string{"name": "Apex"})
	g.SetVertexProp(v, "status", "before")
	g.SetVertexProp(v, "status", "after")
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
	if got, _ := g2.VertexProp(v, "status"); got != "before" {
		t.Errorf("status = %q, want %q (corrupt record dropped)", got, "before")
	}
	if st2.Stats().ReplayedRecords != 2 {
		t.Errorf("replayed %d records, want 2", st2.Stats().ReplayedRecords)
	}
}

func TestCorruptSnapshotFallsBackToOlderGeneration(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())
	g.AddVertexWithProps("Company", map[string]string{"name": "Apex"})
	if err := st.Checkpoint(); err != nil { // generation 1
		t.Fatal(err)
	}
	g.AddVertexWithProps("Company", map[string]string{"name": "Borealis"})
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
	g.AddVertexWithProps("Company", map[string]string{"name": "Apex"})
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
		g.AddVertex("Company")
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
		g.AddVertexWithProps("Company", map[string]string{"name": "padding-padding-padding"})
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
					a := g.AddVertexWithProps("Company", map[string]string{"name": "x"})
					b := g.AddVertex("Person")
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

// TestReplayRemoveAndReaddKeepsTimeIndexConsistent mixes edge removals with
// re-added edges across a WAL-only recovery and a snapshot+tail recovery,
// then verifies a temporal index rebuilt from the recovered graph matches
// the recovered edge set exactly — the invariant nous relies on when it
// re-attaches the time index after Open.
func TestReplayRemoveAndReaddKeepsTimeIndexConsistent(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st := mustOpen(t, dir, g, testOptions())

	a := g.AddVertexWithProps("Company", map[string]string{"name": "Apex"})
	b := g.AddVertexWithProps("Company", map[string]string{"name": "Borealis"})
	var ids []graph.EdgeID
	for ts := int64(100); ts < 110; ts++ {
		id, err := g.AddEdgeFull(a, b, "acquired", 1, ts, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
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
