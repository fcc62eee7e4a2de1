package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"nous/internal/graph"
	"nous/internal/ontology"
	"nous/internal/persist"
)

// durableRoundTrip checkpoints kg's graph into a temp store, recovers it
// into a fresh graph, and rebuilds a KG over it.
func durableRoundTrip(t *testing.T, kg *KG) *KG {
	t.Helper()
	dir := t.TempDir()
	opt := persist.Options{DisableAutoCheckpoint: true, FlushInterval: time.Hour}

	// The store attaches to an already-populated graph here; that skips WAL
	// coverage of the existing state, so take an immediate checkpoint to
	// capture it, exactly like Pipeline.Checkpoint does.
	st, err := persist.Open(dir, kg.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := NewKG(kg.Ontology())
	st2, err := persist.Open(dir, fresh.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	if err := fresh.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return fresh
}

func sampleKG(t *testing.T) *KG {
	t.Helper()
	kg := NewKG(nil)
	kg.AddEntity("DJI Technology Co.", ontology.TypeCompany, "DJI", "dji technology")
	kg.AddEntity("Dow Jones Index", ontology.TypeTopic, "DJI")
	kg.AddEntity("Shenzhen", ontology.TypeCity)
	when := time.Date(2016, 4, 2, 10, 30, 0, 0, time.UTC)
	if _, err := kg.AddFact(Triple{
		Subject: "DJI Technology Co.", Predicate: "headquarteredIn", Object: "Shenzhen",
		Confidence: 1, Curated: true,
		Provenance: Provenance{Source: "yago", DocID: "kb-1"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := kg.AddFact(Triple{
		Subject: "DJI Technology Co.", Predicate: "acquired", Object: "Dow Jones Index",
		Confidence: 0.4,
		Provenance: Provenance{Source: "wsj", DocID: "a-17", Sentence: "DJI acquired the index.", Time: when},
	}); err != nil {
		t.Fatal(err)
	}
	return kg
}

func TestRebuildRoundTripsEntitiesAliasesAndFacts(t *testing.T) {
	kg := sampleKG(t)
	got := durableRoundTrip(t, kg)

	if want, have := kg.Entities(), got.Entities(); !reflect.DeepEqual(want, have) {
		t.Fatalf("entities: want %v, got %v", want, have)
	}
	if want, have := kg.Graph().Epoch(), got.Graph().Epoch(); want != have {
		t.Errorf("epoch: want %d, got %d", want, have)
	}
	for _, surface := range []string{"dji", "dji technology", "shenzhen", "dow jones index"} {
		if want, have := kg.Candidates(surface), got.Candidates(surface); !reflect.DeepEqual(want, have) {
			t.Errorf("Candidates(%q): want %v, got %v", surface, want, have)
		}
	}
	if typ, ok := got.EntityType("DJI Technology Co."); !ok || typ != ontology.TypeCompany {
		t.Errorf("EntityType = %v, %v", typ, ok)
	}

	wantFacts, gotFacts := kg.AllFacts(), got.AllFacts()
	if len(wantFacts) != len(gotFacts) {
		t.Fatalf("fact count: want %d, got %d", len(wantFacts), len(gotFacts))
	}
	for i := range wantFacts {
		w, g := wantFacts[i], gotFacts[i]
		if w.Subject != g.Subject || w.Predicate != g.Predicate || w.Object != g.Object ||
			w.Confidence != g.Confidence || w.Curated != g.Curated ||
			w.SubjectType != g.SubjectType || w.ObjectType != g.ObjectType ||
			w.Provenance.Source != g.Provenance.Source || w.Provenance.DocID != g.Provenance.DocID ||
			w.Provenance.Sentence != g.Provenance.Sentence ||
			w.Provenance.Time.Unix() != g.Provenance.Time.Unix() {
			t.Errorf("fact %d: want %+v, got %+v", i, w, g)
		}
	}

	var wantJSON, gotJSON bytes.Buffer
	if err := kg.ExportJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := got.ExportJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Errorf("ExportJSON differs after round trip:\nwant: %s\ngot:  %s", wantJSON.String(), gotJSON.String())
	}
}

func TestRebuildPreservesEvictionTimeline(t *testing.T) {
	kg := NewKG(nil)
	kg.AddEntity("A", ontology.TypeCompany)
	kg.AddEntity("B", ontology.TypeCompany)
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if _, err := kg.AddFact(Triple{
			Subject: "A", Predicate: "acquired", Object: "B", Confidence: 0.9,
			Provenance: Provenance{Source: "wsj", Time: base.AddDate(0, 0, i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	got := durableRoundTrip(t, kg)
	if n := got.EvictBefore(base.AddDate(0, 0, 2)); n != 2 {
		t.Errorf("evicted %d facts, want 2", n)
	}
	if got.NumFacts() != 1 {
		t.Errorf("facts after eviction = %d, want 1", got.NumFacts())
	}
}

// TestRebuildTwiceDerivesTheSameState: Rebuild derives the KG's own state
// from the graph and writes nothing, so running it on a populated KG leaves
// every read and the epoch as they were.
func TestRebuildTwiceDerivesTheSameState(t *testing.T) {
	kg := sampleKG(t)
	var before bytes.Buffer
	if err := kg.ExportJSON(&before); err != nil {
		t.Fatal(err)
	}
	entities, epoch, undated := kg.Entities(), kg.Graph().Epoch(), len(kg.undated)
	for i := 0; i < 2; i++ {
		if err := kg.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	var after bytes.Buffer
	if err := kg.ExportJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) || !reflect.DeepEqual(kg.Entities(), entities) ||
		kg.Graph().Epoch() != epoch || len(kg.undated) != undated {
		t.Errorf("Rebuild changed the KG")
	}
}

// TestRecoveryRefusesBrokenEntityIdentity: an entity is its name, so a data
// directory whose snapshot holds two vertices with one name, or a vertex with
// no name, is refused when it is opened.
func TestRecoveryRefusesBrokenEntityIdentity(t *testing.T) {
	opt := persist.Options{DisableAutoCheckpoint: true, FlushInterval: time.Hour}
	for _, tc := range []struct {
		name  string
		names []string
		want  string
	}{
		{"shared name", []string{"Acme", "Globex", "Acme"}, `share the name "Acme"`},
		{"nameless vertex", []string{"Acme", ""}, "no name"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g := graph.New()
			st, err := persist.Open(dir, g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.names {
				g.AddVertex(string(ontology.TypeCompany), name)
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			kg := NewKG(nil)
			st2, err := persist.Open(dir, kg.Graph(), opt)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if got := kg.Graph().NumVertices(); got != len(tc.names) {
				t.Fatalf("snapshot restored %d vertices, want %d", got, len(tc.names))
			}
			if err := kg.Rebuild(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Rebuild = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestRebuildZeroProvenanceTimeStaysZero(t *testing.T) {
	kg := NewKG(nil)
	kg.AddEntity("A", ontology.TypeCompany)
	kg.AddEntity("B", ontology.TypeCompany)
	if _, err := kg.AddFact(Triple{Subject: "A", Predicate: "acquired", Object: "B", Confidence: 1, Curated: true}); err != nil {
		t.Fatal(err)
	}
	got := durableRoundTrip(t, kg)
	f := got.AllFacts()[0]
	if !f.Provenance.Time.IsZero() {
		t.Errorf("zero provenance time round-tripped to %v", f.Provenance.Time)
	}
}
