package graph

import (
	"reflect"
	"testing"
)

// TestApplyReplicatedBasics replays a leader-shaped mutation sequence and
// checks state, epoch adoption and hook delivery.
func TestApplyReplicatedBasics(t *testing.T) {
	g := New()
	var got []Mutation
	g.AddMutationHook(func(m Mutation) { got = append(got, m) })

	muts := []Mutation{
		{Kind: MutAddVertex, Epoch: 10, Vertex: Vertex{ID: 0, Label: "Org", Name: "acme"}},
		{Kind: MutAddVertex, Epoch: 11, Vertex: Vertex{ID: 1, Label: "Person", Name: "ada", Aliases: []string{"ada l"}}},
		{Kind: MutAddEdges, Epoch: 12, Edges: []Edge{{ID: 0, Src: 0, Dst: 1, Label: "employs", Weight: 0.9, Timestamp: 100}}},
		{Kind: MutSetVertexLabel, Epoch: 13, VertexID: 0, Label: "Organization"},
		{Kind: MutAddVertexAlias, Epoch: 14, VertexID: 0, Alias: "acme corp"},
	}
	for _, m := range muts {
		if err := g.ApplyReplicated(m); err != nil {
			t.Fatalf("ApplyReplicated(%v): %v", m.Kind, err)
		}
	}

	if e := g.Epoch(); e != 14 {
		t.Fatalf("epoch = %d, want 14 (adopted from the stream)", e)
	}
	if n := g.NumVertices(); n != 2 {
		t.Fatalf("vertices = %d, want 2", n)
	}
	e, ok := g.Edge(0)
	if !ok || e.Weight != 0.9 || e.Timestamp != 100 {
		t.Fatalf("edge 0 = %+v ok=%v, want weight 0.9 timestamp 100", e, ok)
	}
	if v, _ := g.Vertex(0); !reflect.DeepEqual(v, Vertex{ID: 0, Label: "Organization", Name: "acme", Aliases: []string{"acme corp"}}) {
		t.Fatalf("vertex 0 = %+v", v)
	}
	if v, _ := g.Vertex(1); !reflect.DeepEqual(v, Vertex{ID: 1, Label: "Person", Name: "ada", Aliases: []string{"ada l"}}) {
		t.Fatalf("vertex 1 = %+v", v)
	}
	if len(got) != len(muts) {
		t.Fatalf("hook saw %d mutations, want %d", len(got), len(muts))
	}
	for i, m := range got {
		if m.Epoch != muts[i].Epoch || m.Kind != muts[i].Kind {
			t.Fatalf("hook[%d] = kind %d epoch %d, want kind %d epoch %d", i, m.Kind, m.Epoch, muts[i].Kind, muts[i].Epoch)
		}
	}

	// The allocators must have advanced past the leader-assigned IDs so a
	// promoted follower would not re-mint them.
	if id := g.AddVertex("X", ""); id != 2 {
		t.Fatalf("next local vertex ID = %d, want 2", id)
	}
}

// TestApplyReplicatedIdempotent re-applies the same records and checks that
// duplicates neither change state nor reach the hooks.
func TestApplyReplicatedIdempotent(t *testing.T) {
	g := New()
	muts := []Mutation{
		{Kind: MutAddVertex, Epoch: 1, Vertex: Vertex{ID: 0, Label: "Any", Name: "acme"}},
		{Kind: MutAddVertex, Epoch: 2, Vertex: Vertex{ID: 1, Label: "Org", Name: "globex"}},
		{Kind: MutAddEdges, Epoch: 3, Edges: []Edge{{ID: 0, Src: 0, Dst: 1, Label: "acquired", Weight: 1, Timestamp: 50}}},
		{Kind: MutRemoveEdge, Epoch: 4, EdgeID: 0},
		{Kind: MutAddVertexAlias, Epoch: 5, VertexID: 0, Alias: "acme corp"},
		{Kind: MutSetVertexLabel, Epoch: 6, VertexID: 0, Label: "Org"},
	}
	for _, m := range muts {
		if err := g.ApplyReplicated(m); err != nil {
			t.Fatal(err)
		}
	}
	var dup []Mutation
	g.AddMutationHook(func(m Mutation) { dup = append(dup, m) })
	for _, m := range muts {
		if err := g.ApplyReplicated(m); err != nil {
			t.Fatal(err)
		}
	}
	// Replaying the range re-runs the edge's full lifecycle (the remove made
	// its re-insert "fresh" again), so subscribers may see add+remove again —
	// but always in add-before-remove order, so they converge too. The
	// vertex records are already in effect and reach no subscriber.
	var lifecycle []MutationKind
	for _, m := range dup {
		lifecycle = append(lifecycle, m.Kind)
	}
	if !reflect.DeepEqual(lifecycle, []MutationKind{MutAddEdges, MutRemoveEdge}) {
		t.Fatalf("replayed lifecycle = %v, want [MutAddEdges MutRemoveEdge]", lifecycle)
	}
	if n := g.NumEdges(); n != 0 {
		t.Fatalf("edges = %d, want 0 after replayed remove", n)
	}
	if v, _ := g.Vertex(0); !reflect.DeepEqual(v, Vertex{ID: 0, Label: "Org", Name: "acme", Aliases: []string{"acme corp"}}) {
		t.Fatalf("vertex 0 after replay = %+v", v)
	}
	if e := g.Epoch(); e != 6 {
		t.Fatalf("epoch = %d, want 6", e)
	}
}

// TestApplyReplicatedPartialBatch delivers a batch where one edge already
// exists: only the fresh edges may be emitted.
func TestApplyReplicatedPartialBatch(t *testing.T) {
	g := New()
	for i := 0; i < 3; i++ {
		g.ApplyReplicated(Mutation{Kind: MutAddVertex, Epoch: uint64(i + 1), Vertex: Vertex{ID: VertexID(i), Label: "V"}})
	}
	if err := g.ApplyReplicated(Mutation{Kind: MutAddEdges, Epoch: 4, Edges: []Edge{
		{ID: 0, Src: 0, Dst: 1, Label: "a"},
	}}); err != nil {
		t.Fatal(err)
	}
	var got []Mutation
	g.AddMutationHook(func(m Mutation) { got = append(got, m) })
	if err := g.ApplyReplicated(Mutation{Kind: MutAddEdges, Epoch: 5, Edges: []Edge{
		{ID: 0, Src: 0, Dst: 1, Label: "a"}, // duplicate
		{ID: 1, Src: 1, Dst: 2, Label: "b"}, // fresh
	}}); err != nil {
		t.Fatal(err)
	}
	want := []EdgeID{1}
	var ids []EdgeID
	for _, m := range got {
		for _, e := range m.Edges {
			ids = append(ids, e.ID)
		}
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("emitted edge IDs = %v, want %v", ids, want)
	}
	if n := g.NumEdges(); n != 2 {
		t.Fatalf("edges = %d, want 2", n)
	}
}

// TestApplyReplicatedMissingTargets: a vertex write or a remove whose
// target is absent (it predates the bootstrap snapshot) is a silent no-op.
func TestApplyReplicatedMissingTargets(t *testing.T) {
	g := New()
	var got []Mutation
	g.AddMutationHook(func(m Mutation) { got = append(got, m) })
	for _, m := range []Mutation{
		{Kind: MutSetVertexLabel, Epoch: 8, VertexID: 7, Label: "V"},
		{Kind: MutAddVertexAlias, Epoch: 9, VertexID: 7, Alias: "k"},
		{Kind: MutRemoveEdge, Epoch: 10, EdgeID: 7},
	} {
		if err := g.ApplyReplicated(m); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 0 {
		t.Fatalf("no-op applies reached hooks: %+v", got)
	}
	if e := g.Epoch(); e != 0 {
		t.Fatalf("epoch = %d, want 0 (no-ops adopt nothing)", e)
	}
	// An edge batch referencing a missing endpoint is a hard error: the
	// stream is ordered, so this means the follower lost a record.
	if err := g.ApplyReplicated(Mutation{Kind: MutAddEdges, Epoch: 11, Edges: []Edge{{ID: 0, Src: 0, Dst: 1, Label: "x"}}}); err == nil {
		t.Fatal("expected error for edge with missing endpoints")
	}
}

// TestApplyReplicatedRejectsEdgeBeyondAllocator: a logged edge batch holds
// IDs below the allocator it started from plus its length, because AddEdges
// hands IDs out contiguously. A record with an ID beyond that is refused
// before it sizes the edge slab to the ID, and a replayed one is
// refused the same way (persist's TestOpenRejectsEdgeBeyondAllocator).
func TestApplyReplicatedRejectsEdgeBeyondAllocator(t *testing.T) {
	g := New()
	for i := 0; i < 2; i++ {
		if err := g.ApplyReplicated(Mutation{Kind: MutAddVertex, Epoch: uint64(i + 1), Vertex: Vertex{ID: VertexID(i), Label: "V"}}); err != nil {
			t.Fatal(err)
		}
	}
	far := Mutation{Kind: MutAddEdges, Epoch: 3, Edges: []Edge{{ID: 1 << 20, Src: 0, Dst: 1, Label: "x"}}}
	if err := g.ApplyReplicated(far); err == nil {
		t.Fatal("edge 1<<20 on a graph whose allocator is at 0 was accepted")
	}
	if n := len(g.slab.chunks); n != 0 {
		t.Fatalf("the edge slab grew to %d chunks for a refused edge", n)
	}
	if g.NumEdges() != 0 || g.Epoch() != 2 {
		t.Fatalf("refused batch left %d edges, epoch %d", g.NumEdges(), g.Epoch())
	}
	// The last ID a batch of two may carry from allocator 0 is 1.
	if err := g.ApplyReplicated(Mutation{Kind: MutAddEdges, Epoch: 3, Edges: []Edge{
		{ID: 1, Src: 0, Dst: 1, Label: "x"}, {ID: 0, Src: 1, Dst: 0, Label: "y"},
	}}); err != nil {
		t.Fatalf("in-range batch: %v", err)
	}
}
