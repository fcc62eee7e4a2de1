package core

import (
	"reflect"
	"testing"
	"time"

	"nous/internal/graph"
)

// captureMutations records every graph-level mutation a leader KG emits, in
// order — the same stream a WAL-shipping follower would receive.
func captureMutations(kg *KG) *[]graph.Mutation {
	var muts []graph.Mutation
	kg.Graph().AddMutationHook(func(m graph.Mutation) {
		// Deep-copy the slices the graph may reuse.
		c := m
		if m.Edges != nil {
			c.Edges = append([]graph.Edge(nil), m.Edges...)
		}
		muts = append(muts, c)
	})
	return &muts
}

// normFacts re-encodes every provenance time through its Unix instant so
// leader facts (original time.Time values) and follower facts (reconstructed
// from edge timestamps) compare equal when they denote the same second.
func normFacts(fs []Fact) []Fact {
	out := append([]Fact(nil), fs...)
	for i := range out {
		out[i].Provenance.Time = time.Unix(out[i].Provenance.Time.Unix(), 0)
	}
	return out
}

func leaderFixture(t *testing.T) (*KG, *[]graph.Mutation) {
	t.Helper()
	kg := NewKG(nil)
	muts := captureMutations(kg)
	kg.AddEntity("acme corp", "company", "acme", "acme inc")
	if _, err := kg.AddFact(Triple{
		Subject: "acme corp", Predicate: "acquired", Object: "globex",
		Confidence: 0.9, Curated: true,
		Provenance: Provenance{Source: "yago", DocID: "d1"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := kg.AddFact(Triple{
		Subject: "acme corp", Predicate: "partnersWith", Object: "initech",
		Confidence: 0.4,
		Provenance: Provenance{Source: "wsj", DocID: "d2", Sentence: "s", Time: time.Unix(1000, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	// An undated extracted fact, later removed: the follower must see the
	// full lifecycle.
	rid, err := kg.AddFact(Triple{
		Subject: "globex", Predicate: "partnersWith", Object: "initech",
		Confidence: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !kg.removeFact(rid) {
		t.Fatal("removeFact failed")
	}
	return kg, muts
}

// TestKGApplyReplicatedConverges replays a leader's mutation stream into a
// fresh follower and checks every derived index matches the leader.
func TestKGApplyReplicatedConverges(t *testing.T) {
	leader, muts := leaderFixture(t)
	follower := NewKG(nil)
	var events []Event
	follower.Subscribe(func(ev Event) { events = append(events, ev) })
	for _, m := range *muts {
		if err := follower.ApplyReplicated(m); err != nil {
			t.Fatalf("ApplyReplicated(%v): %v", m.Kind, err)
		}
	}

	if got, want := follower.Entities(), leader.Entities(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entities = %v, want %v", got, want)
	}
	if got, want := normFacts(follower.AllFacts()), normFacts(leader.AllFacts()); !reflect.DeepEqual(got, want) {
		t.Fatalf("facts = %+v, want %+v", got, want)
	}
	if got, want := follower.Candidates("acme inc"), leader.Candidates("acme inc"); !reflect.DeepEqual(got, want) {
		t.Fatalf("alias candidates = %v, want %v", got, want)
	}
	if got, want := follower.Graph().Epoch(), leader.Graph().Epoch(); got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
	if got, want := follower.TemporalIndex().Stats(), leader.TemporalIndex().Stats(); got != want {
		t.Fatalf("temporal stats = %+v, want %+v", got, want)
	}
	// The removed fact's lifecycle reached fact subscribers: three adds, one
	// eviction.
	var adds, evicts int
	for _, ev := range events {
		switch ev.Kind {
		case FactAdded:
			adds++
		case FactEvicted:
			evicts++
		}
	}
	if adds != 3 || evicts != 1 {
		t.Fatalf("follower saw %d adds, %d evicts; want 3 and 1", adds, evicts)
	}
}

// TestKGApplyReplicatedIdempotent replays the stream twice; the second pass
// must leave the follower byte-identical to the first.
func TestKGApplyReplicatedIdempotent(t *testing.T) {
	leader, muts := leaderFixture(t)
	follower := NewKG(nil)
	for _, m := range *muts {
		if err := follower.ApplyReplicated(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range *muts {
		if err := follower.ApplyReplicated(m); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := normFacts(follower.AllFacts()), normFacts(leader.AllFacts()); !reflect.DeepEqual(got, want) {
		t.Fatalf("facts after replay = %+v, want %+v", got, want)
	}
	if got, want := follower.NumEntities(), leader.NumEntities(); got != want {
		t.Fatalf("entities = %d, want %d", got, want)
	}
	if got, want := follower.Graph().Epoch(), leader.Graph().Epoch(); got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
}

// TestKGApplyReplicatedAfterBootstrap mirrors the real follower flow: restore
// a snapshot-equivalent prefix via Rebuild, then stream the suffix.
func TestKGApplyReplicatedAfterBootstrap(t *testing.T) {
	leader := NewKG(nil)
	muts := captureMutations(leader)
	if _, err := leader.AddFact(Triple{
		Subject: "acme corp", Predicate: "acquired", Object: "globex",
		Confidence: 1, Curated: true,
	}); err != nil {
		t.Fatal(err)
	}
	prefix := len(*muts)

	// Bootstrap: copy the leader's graph state wholesale, then Rebuild.
	follower := NewKG(nil)
	snap := leader.Graph().Snapshot()
	follower.Graph().AdvanceIDs(snap.NextVertex, snap.NextEdge)
	if err := follower.Graph().RestoreVertices(snap.Vertices); err != nil {
		t.Fatal(err)
	}
	if err := follower.Graph().RestoreEdges(snap.Edges); err != nil {
		t.Fatal(err)
	}
	follower.Graph().SetEpoch(snap.Epoch)
	if err := follower.Rebuild(); err != nil {
		t.Fatal(err)
	}

	// Suffix arrives over the stream.
	if _, err := leader.AddFact(Triple{
		Subject: "globex", Predicate: "partnersWith", Object: "initech",
		Confidence: 0.5, Provenance: Provenance{Time: time.Unix(2000, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	for _, m := range (*muts)[prefix:] {
		if err := follower.ApplyReplicated(m); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := normFacts(follower.AllFacts()), normFacts(leader.AllFacts()); !reflect.DeepEqual(got, want) {
		t.Fatalf("facts = %+v, want %+v", got, want)
	}
	if got, want := follower.Graph().Epoch(), leader.Graph().Epoch(); got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
}

// TestKGApplyReplicatedRefusesReusedName: a replicated vertex that carries
// another vertex's name is refused and leaves the follower as it was, as
// recovery refuses a snapshot holding two vertices with one name.
func TestKGApplyReplicatedRefusesReusedName(t *testing.T) {
	follower := NewKG(nil)
	acme := graph.Mutation{Kind: graph.MutAddVertex, Epoch: 1, Vertex: graph.Vertex{ID: 0, Label: "Company", Name: "Acme"}}
	if err := follower.ApplyReplicated(acme); err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicated(acme); err != nil {
		t.Fatalf("re-delivered vertex: %v", err)
	}
	twin := graph.Mutation{Kind: graph.MutAddVertex, Epoch: 2, Vertex: graph.Vertex{ID: 1, Label: "Company", Name: "Acme"}}
	if err := follower.ApplyReplicated(twin); err == nil {
		t.Fatal("a second vertex named Acme was applied")
	}
	if n, e := follower.Graph().NumVertices(), follower.Graph().Epoch(); n != 1 || e != 1 {
		t.Fatalf("follower holds %d vertices at epoch %d, want 1 at 1", n, e)
	}
}
