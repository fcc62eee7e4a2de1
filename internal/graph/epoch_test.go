package graph

import (
	"sync"
	"testing"
)

// TestEpochBumpsOnEveryMutation pins the mutation-hook contract on every
// write path: each live mutator and each ApplyReplicated kind moves the
// epoch by one and delivers exactly one record, stamped with the epoch it
// produced, while the write lock is still held. A duplicate replicated
// delivery, a failed write and a read deliver nothing and leave the epoch
// alone.
func TestEpochBumpsOnEveryMutation(t *testing.T) {
	leader, replica := New(), New()
	if leader.Epoch() != 0 {
		t.Fatalf("fresh graph epoch = %d", leader.Epoch())
	}
	seen := make(map[*Graph]*[]Mutation)
	for _, g := range []*Graph{leader, replica} {
		got := new([]Mutation)
		seen[g] = got
		g.AddMutationHook(func(m Mutation) {
			if m.Epoch != g.Epoch() {
				t.Errorf("kind %d: hook saw m.Epoch %d, graph epoch %d", m.Kind, m.Epoch, g.Epoch())
			}
			if g.mu.TryRLock() {
				g.mu.RUnlock()
				t.Errorf("kind %d: hook ran without the write lock held", m.Kind)
			}
			*got = append(*got, m)
		})
	}

	var a, b VertexID
	var e EdgeID
	type row struct {
		name string
		g    *Graph
		do   func()
		want int // records the hook must see; the epoch moves by as many
	}
	rows := []row{
		{"AddVertex", leader, func() { a = leader.AddVertex("X") }, 1},
		{"AddVertexWithProps", leader, func() { b = leader.AddVertexWithProps("X", map[string]string{"k": "v"}) }, 1},
		{"SetVertexProp", leader, func() { leader.SetVertexProp(a, "k", "v") }, 1},
		{"AddEdge", leader, func() { e, _ = leader.AddEdge(a, b, "r") }, 1},
		{"SetEdgeProp", leader, func() { leader.SetEdgeProp(e, "k", "v") }, 1},
		{"SetEdgeWeight", leader, func() { leader.SetEdgeWeight(e, 0.5) }, 1},
		{"RemoveEdge", leader, func() { leader.RemoveEdge(e) }, 1},
		{"AddEdges", leader, func() {
			if _, err := leader.AddEdges([]EdgeSpec{{Src: a, Dst: b, Label: "r2", Weight: 1}}); err != nil {
				t.Fatal(err)
			}
		}, 1},
	}
	// The replica applies the leader's records in order, which covers every
	// ApplyReplicated kind, then receives the last batch a second time.
	apply := func(i int) func() {
		return func() {
			if err := replica.ApplyReplicated((*seen[leader])[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := len(rows)
	for i := 0; i < live; i++ {
		rows = append(rows, row{"ApplyReplicated(" + rows[i].name + ")", replica, apply(i), 1})
	}
	rows = append(rows, row{"duplicate ApplyReplicated(AddEdges)", replica, apply(live - 1), 0})

	for _, r := range rows {
		before, n := r.g.Epoch(), len(*seen[r.g])
		r.do()
		if got := len(*seen[r.g]) - n; got != r.want {
			t.Fatalf("%s: hook saw %d records, want %d", r.name, got, r.want)
		}
		if got := r.g.Epoch(); got != before+uint64(r.want) {
			t.Fatalf("%s: epoch %d -> %d, want +%d", r.name, before, got, r.want)
		}
	}

	// Reads must not move the epoch.
	g := leader
	before := g.Epoch()
	g.Vertex(a)
	incidentEdges(g, a)
	g.Neighbors(a)
	g.NumVertices()
	countLabel(g, "r2")
	liveEdgeIDs(g)
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
	if n := len(*seen[g]); n != live {
		t.Fatalf("reads and failed mutations reached the hook: %d records, want %d", n, live)
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
