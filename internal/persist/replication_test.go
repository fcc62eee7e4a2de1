package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"nous/internal/graph"
)

// quietOptions keeps the background machinery out of the test's way.
func quietOptions() Options {
	return Options{DisableAutoCheckpoint: true, FlushInterval: time.Hour}
}

// drain reads records until the cursor reports caught-up, returning the
// payload epochs in stream order.
func drain(t *testing.T, cur *WALCursor) []uint64 {
	t.Helper()
	var epochs []uint64
	for {
		payload, err := cur.Next()
		if errors.Is(err, ErrCaughtUp) {
			return epochs
		}
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		e, err := RecordEpoch(payload)
		if err != nil {
			t.Fatalf("record epoch: %v", err)
		}
		if _, err := DecodeRecord(payload); err != nil {
			t.Fatalf("decode: %v", err)
		}
		epochs = append(epochs, e)
	}
}

// TestWALCursorRefusesOldWALVersion: a follower's cursor refuses a
// version-2 segment instead of shipping records no reader decodes.
func TestWALCursorRefusesOldWALVersion(t *testing.T) {
	dir := t.TempDir()
	copyParentWAL(t, dir)
	cur, err := OpenWALCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(); err == nil || !strings.Contains(err.Error(), "unsupported WAL version 2") {
		t.Errorf("Next: err = %v, want unsupported WAL version 2", err)
	}
}

func TestWALCursorTailsAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st, err := Open(dir, g, quietOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	a := g.AddVertex("A", "")
	b := g.AddVertex("B", "")
	if _, err := g.AddEdge(a, b, "x"); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	cur, err := OpenWALCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	got := drain(t, cur)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("epochs = %v, want [1 2 3]", got)
	}

	// Roll the segment while the cursor is parked at the live tail; new
	// records land in the next segment and the cursor must follow.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(b, a, "y"); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	got = drain(t, cur)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("post-rotation epochs = %v, want [4]", got)
	}
}

// TestWALCursorBufferedTailNotLost: records buffered in the group-commit
// window when a checkpoint rotates must be visible to the cursor before it
// advances to the new segment (the flush-before-rotate ordering).
func TestWALCursorBufferedTailNotLost(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	// Large group-commit threshold: nothing flushes until rotation.
	opt := quietOptions()
	opt.GroupCommitBytes = 1 << 20
	st, err := Open(dir, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	g.AddVertex("A", "")
	g.AddVertex("B", "")
	cur, err := OpenWALCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := drain(t, cur); len(got) != 0 {
		t.Fatalf("unflushed records visible early: %v", got)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur); len(got) != 2 {
		t.Fatalf("epochs after rotation = %v, want the 2 buffered records", got)
	}
}

// TestWALCursorSegmentGap: when pruning removes the next segment in
// sequence mid-stream, the cursor must refuse to skip silently.
func TestWALCursorSegmentGap(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st, err := Open(dir, g, quietOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	g.AddVertex("A", "")
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	cur, err := OpenWALCursor(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := drain(t, cur); len(got) != 1 {
		t.Fatalf("epochs = %v, want 1 record", got)
	}

	// Three checkpoints with a record in each window: retention (2) prunes
	// segment 1 while the cursor still sits on segment 0.
	for i := 0; i < 3; i++ {
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		g.AddVertex("B", "")
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	_, err = cur.Next()
	if !errors.Is(err, ErrSegmentGap) {
		t.Fatalf("err = %v, want ErrSegmentGap", err)
	}
}

func TestSnapshotDiscoveryAndFloor(t *testing.T) {
	dir := t.TempDir()
	g := graph.New()
	st, err := Open(dir, g, quietOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, _, ok, err := NewestSnapshot(dir); err != nil || ok {
		t.Fatalf("NewestSnapshot on empty dir = ok=%v err=%v", ok, err)
	}
	if _, ok, err := FloorEpoch(dir); err != nil || ok {
		t.Fatalf("FloorEpoch on empty dir = ok=%v err=%v", ok, err)
	}

	g.AddVertex("A", "")
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.AddVertex("B", "")
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	path, epoch, ok, err := NewestSnapshot(dir)
	if err != nil || !ok || epoch != 2 {
		t.Fatalf("NewestSnapshot = %q epoch=%d ok=%v err=%v, want epoch 2", path, epoch, ok, err)
	}
	floor, ok, err := FloorEpoch(dir)
	if err != nil || !ok || floor != 1 {
		t.Fatalf("FloorEpoch = %d ok=%v err=%v, want 1", floor, ok, err)
	}

	// The snapshot bytes restore into an empty graph at the same epoch.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g2 := graph.New()
	e, err := RestoreSnapshotBytes(g2, raw)
	if err != nil || e != 2 {
		t.Fatalf("RestoreSnapshotBytes epoch=%d err=%v, want 2", e, err)
	}
	if g2.NumVertices() != 2 {
		t.Fatalf("restored vertices = %d, want 2", g2.NumVertices())
	}
}

// TestReopenAndReplicaApplyAgree pins the one apply path: over random
// streams of vertex adds, relabels and alias appends, edge batches and edge
// removals, with a checkpoint at a random point, reopening the directory
// gives a graph equal to the live one, epoch included. So does a fresh
// graph fed the way a follower is: the checkpoint's snapshot, then every
// later record through WALCursor, DecodeRecord and graph.ApplyReplicated.
func TestReopenAndReplicaApplyAgree(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		live := graph.New()
		st, err := Open(dir, live, quietOptions())
		if err != nil {
			t.Fatal(err)
		}
		var vs []graph.VertexID
		var es []graph.EdgeID
		n := 1 + rng.Intn(80)
		cut := rng.Intn(n)
		for i := 0; i < n; i++ {
			if i == cut {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			switch op := rng.Intn(4); {
			case op == 0 || len(vs) == 0:
				var name string
				if rng.Intn(2) == 0 {
					name = fmt.Sprint("v", i)
				}
				vs = append(vs, live.AddVertex(fmt.Sprint("L", rng.Intn(3)), name))
			case op == 1:
				if v := vs[rng.Intn(len(vs))]; rng.Intn(2) == 0 {
					live.SetVertexLabel(v, fmt.Sprint("L", rng.Intn(3)))
				} else {
					live.AddVertexAlias(v, fmt.Sprint("a", rng.Intn(3)))
				}
			case op == 2:
				specs := make([]graph.EdgeSpec, 1+rng.Intn(4))
				for j := range specs {
					specs[j] = graph.EdgeSpec{
						Src: vs[rng.Intn(len(vs))], Dst: vs[rng.Intn(len(vs))],
						Label: fmt.Sprint("p", rng.Intn(3)), Weight: rng.Float64(),
						Timestamp: rng.Int63n(1 << 40),
					}
					if rng.Intn(2) == 0 {
						specs[j].Row = graph.FactRow{Doc: fmt.Sprint("d", i), Curated: rng.Intn(2) == 0}
					}
				}
				ids, err := live.AddEdges(specs)
				if err != nil {
					t.Fatal(err)
				}
				es = append(es, ids...)
			default:
				if len(es) > 0 {
					live.RemoveEdge(es[rng.Intn(len(es))])
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// The checkpoint pruned the segment before its cut, so the replica
		// bootstraps from the snapshot and skips the records it covers, as
		// a leader's stream does.
		replica := graph.New()
		path, _, _, err := NewestSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		from, err := RestoreSnapshotBytes(replica, raw)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := OpenWALCursor(dir)
		if err != nil {
			t.Fatal(err)
		}
		for {
			payload, err := cur.Next()
			if errors.Is(err, ErrCaughtUp) {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: cursor: %v", seed, err)
			}
			m, err := DecodeRecord(payload)
			if err == nil && m.Epoch > from {
				err = replica.ApplyReplicated(m)
			}
			if err != nil {
				t.Fatalf("seed %d: replica apply: %v", seed, err)
			}
		}
		cur.Close()
		assertGraphsEqual(t, live, replica)

		reopened := graph.New()
		st2, err := Open(dir, reopened, quietOptions())
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, live, reopened)
		if t.Failed() {
			t.Logf("seed %d: %d operations, checkpoint before operation %d", seed, n, cut)
		}
		return !t.Failed()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
