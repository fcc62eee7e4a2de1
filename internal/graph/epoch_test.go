package graph

import (
	"sync"
	"testing"
)

// TestEpochBumpsOnEveryMutation verifies each write kind advances the
// mutation epoch exactly once, and reads leave it untouched.
func TestEpochBumpsOnEveryMutation(t *testing.T) {
	g := New()
	if g.Epoch() != 0 {
		t.Fatalf("fresh graph epoch = %d", g.Epoch())
	}

	step := func(name string, fn func()) {
		t.Helper()
		before := g.Epoch()
		fn()
		if got := g.Epoch(); got != before+1 {
			t.Fatalf("%s: epoch %d -> %d, want +1", name, before, got)
		}
	}

	var a, b VertexID
	var e EdgeID
	step("AddVertex", func() { a = g.AddVertex("X") })
	step("AddVertexWithProps", func() { b = g.AddVertexWithProps("X", map[string]string{"k": "v"}) })
	step("SetVertexProp", func() { g.SetVertexProp(a, "k", "v") })
	step("AddEdge", func() { e, _ = g.AddEdge(a, b, "r") })
	step("SetEdgeProp", func() { g.SetEdgeProp(e, "k", "v") })
	step("SetEdgeWeight", func() { g.SetEdgeWeight(e, 0.5) })
	step("AddEdges", func() {
		if _, err := g.AddEdges([]EdgeSpec{{Src: a, Dst: b, Label: "r2", Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	})
	step("RemoveEdge", func() { g.RemoveEdge(e) })

	// Reads must not move the epoch.
	before := g.Epoch()
	g.Vertex(a)
	g.Edges(a)
	g.Neighbors(a)
	g.NumVertices()
	g.EdgesByLabel("r2")
	Compile(g, nil).PageRank(0.85, 5, nil)
	if got := g.Epoch(); got != before {
		t.Fatalf("reads moved epoch %d -> %d", before, got)
	}

	// Failed mutations must not move the epoch either.
	if g.SetVertexProp(9999, "k", "v") {
		t.Fatal("SetVertexProp on missing vertex succeeded")
	}
	if g.RemoveEdge(9999) {
		t.Fatal("RemoveEdge on missing edge succeeded")
	}
	if _, err := g.AddEdge(a, 9999, "r"); err == nil {
		t.Fatal("AddEdge to missing vertex succeeded")
	}
	if got := g.Epoch(); got != before {
		t.Fatalf("failed mutations moved epoch %d -> %d", before, got)
	}
}

// TestEpochConcurrentReaders checks Epoch is readable lock-free while
// writers mutate, and ends at the exact mutation count.
func TestEpochConcurrentReaders(t *testing.T) {
	g := New()
	root := g.AddVertex("X")
	const writers, perWriter = 4, 100
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := g.Epoch()
				if now < last {
					t.Error("epoch went backwards")
					return
				}
				last = now
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				v := g.AddVertex("Y")
				if _, err := g.AddEdge(root, v, "r"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	want := uint64(1 + writers*perWriter*2) // root + per loop: vertex + edge
	if got := g.Epoch(); got != want {
		t.Fatalf("final epoch = %d, want %d", got, want)
	}
}
