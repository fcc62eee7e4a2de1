package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"nous/internal/graph"
	"nous/internal/ontology"
	"nous/internal/temporal"
)

func day(n int) time.Time {
	return time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func curated(s, p, o string) Triple {
	return Triple{Subject: s, Predicate: p, Object: o, Confidence: 1, Curated: true,
		Provenance: Provenance{Source: "yago"}}
}

func extracted(s, p, o string, conf float64, t time.Time) Triple {
	return Triple{Subject: s, Predicate: p, Object: o, Confidence: conf,
		Provenance: Provenance{Source: "wsj", DocID: "d1", Sentence: s + " " + p + " " + o, Time: t}}
}

func TestAddFactCreatesEntities(t *testing.T) {
	kg := NewKG(nil)
	id, err := kg.AddFact(curated("DJI", "manufactures", "Phantom 3"))
	if err != nil {
		t.Fatal(err)
	}
	if kg.NumEntities() != 2 || kg.NumFacts() != 1 {
		t.Fatalf("entities=%d facts=%d", kg.NumEntities(), kg.NumFacts())
	}
	f, ok := kg.Fact(id)
	if !ok || f.Subject != "DJI" || f.Object != "Phantom 3" {
		t.Fatalf("Fact = %+v, %v", f, ok)
	}
	if typ, _ := kg.EntityType("DJI"); typ != ontology.TypeCompany {
		t.Errorf("subject type defaulted to %s, want Company", typ)
	}
	if typ, _ := kg.EntityType("Phantom 3"); typ != ontology.TypeProduct {
		t.Errorf("object type defaulted to %s, want Product", typ)
	}
}

func TestAddFactRejectsBadInput(t *testing.T) {
	kg := NewKG(nil)
	if _, err := kg.AddFact(curated("", "acquired", "X")); err == nil {
		t.Error("empty subject accepted")
	}
	if _, err := kg.AddFact(curated("A", "notapred", "B")); err == nil {
		t.Error("unknown predicate accepted")
	}
	bad := curated("Alice", "acquired", "Bob")
	bad.SubjectType = ontology.TypePerson
	bad.ObjectType = ontology.TypePerson
	if _, err := kg.AddFact(bad); err == nil {
		t.Error("type-incompatible triple accepted")
	}
}

func TestConfidenceClamping(t *testing.T) {
	kg := NewKG(nil)
	tr := extracted("A Corp", "acquired", "B Corp", 1.7, day(0))
	id, err := kg.AddFact(tr)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := kg.Fact(id); f.Confidence != 1 {
		t.Errorf("confidence not clamped: %v", f.Confidence)
	}
	low, err := kg.AddFact(extracted("A Corp", "acquired", "C Corp", -0.5, day(0)))
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := kg.Fact(low); f.Confidence != 0 {
		t.Errorf("negative confidence not clamped: %v", f.Confidence)
	}
}

func TestHasFactAndLookups(t *testing.T) {
	kg := NewKG(nil)
	kg.AddFact(curated("DJI", "headquarteredIn", "Shenzhen"))
	kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.8, day(1)))
	kg.AddFact(extracted("Parrot", "acquired", "Aeros", 0.3, day(2)))

	if !kg.HasFact("DJI", "acquired", "Aeros") {
		t.Error("HasFact missed existing fact")
	}
	if kg.HasFact("DJI", "acquired", "Shenzhen") {
		t.Error("HasFact invented a fact")
	}
	objs := kg.ObjectsOfWindow("DJI", "", temporal.All())
	if len(objs) != 2 {
		t.Fatalf("ObjectsOfWindow(DJI) = %v", objs)
	}
	if objs[0].Name != "Shenzhen" { // confidence 1 beats 0.8
		t.Errorf("expected Shenzhen first by confidence, got %v", objs)
	}
	subs := kg.SubjectsOfWindow("acquired", "Aeros", temporal.All())
	if len(subs) != 2 || subs[0].Name != "DJI" {
		t.Errorf("SubjectsOfWindow = %v", subs)
	}
}

func TestFactsAboutOrdering(t *testing.T) {
	kg := NewKG(nil)
	kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.2, day(1)))
	kg.AddFact(curated("DJI", "headquarteredIn", "Shenzhen"))
	facts := kg.FactsAbout("DJI")
	if len(facts) != 2 {
		t.Fatalf("FactsAbout = %d facts", len(facts))
	}
	if facts[0].Confidence < facts[1].Confidence {
		t.Error("facts not ordered by descending confidence")
	}
}

func TestEvictBeforeKeepsCurated(t *testing.T) {
	kg := NewKG(nil)
	kg.AddFact(curated("DJI", "headquarteredIn", "Shenzhen"))
	kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.9, day(0)))
	kg.AddFact(extracted("DJI", "acquired", "RoboPix", 0.9, day(10)))

	var evicted []string
	kg.Subscribe(func(ev Event) {
		if ev.Kind == FactEvicted {
			evicted = append(evicted, ev.Fact.Object)
		}
	})
	n := kg.EvictBefore(day(5))
	if n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if len(evicted) != 1 || evicted[0] != "Aeros" {
		t.Fatalf("eviction events = %v", evicted)
	}
	if !kg.HasFact("DJI", "headquarteredIn", "Shenzhen") {
		t.Error("curated fact was evicted")
	}
	if kg.HasFact("DJI", "acquired", "Aeros") {
		t.Error("old extracted fact survived eviction")
	}
	if !kg.HasFact("DJI", "acquired", "RoboPix") {
		t.Error("in-window fact was evicted")
	}
}

func TestEvictBeforeSweepsUndatedExtracted(t *testing.T) {
	kg := NewKG(nil)
	kg.AddFact(curated("DJI", "headquarteredIn", "Shenzhen"))
	// An extracted fact with no provenance time sits on the timeless
	// sentinel, outside every dated index read; eviction must still treat
	// it as infinitely old rather than leak it forever.
	kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.9, time.Time{}))
	kg.AddFact(extracted("DJI", "acquired", "RoboPix", 0.9, day(10)))

	if n := kg.EvictBefore(day(5)); n != 1 {
		t.Fatalf("evicted %d, want the undated fact only", n)
	}
	if kg.HasFact("DJI", "acquired", "Aeros") {
		t.Error("undated extracted fact survived eviction")
	}
	if !kg.HasFact("DJI", "headquarteredIn", "Shenzhen") {
		t.Error("curated fact was evicted")
	}
	if !kg.HasFact("DJI", "acquired", "RoboPix") {
		t.Error("in-window fact was evicted")
	}
	if n := kg.EvictBefore(day(5)); n != 0 {
		t.Fatalf("second evict = %d, want 0", n)
	}
}

func TestEvictBeforeIdempotent(t *testing.T) {
	kg := NewKG(nil)
	kg.AddFact(extracted("A Co", "acquired", "B Co", 0.5, day(0)))
	if n := kg.EvictBefore(day(1)); n != 1 {
		t.Fatalf("first evict = %d", n)
	}
	if n := kg.EvictBefore(day(1)); n != 0 {
		t.Fatalf("second evict = %d, want 0", n)
	}
}

func TestSubscribeReceivesAdds(t *testing.T) {
	kg := NewKG(nil)
	var got []string
	kg.Subscribe(func(ev Event) {
		if ev.Kind == FactAdded {
			got = append(got, ev.Fact.Predicate)
		}
	})
	kg.AddFact(curated("DJI", "manufactures", "Phantom 3"))
	if len(got) != 1 || got[0] != "manufactures" {
		t.Fatalf("events = %v", got)
	}
}

func TestCandidatesAliases(t *testing.T) {
	kg := NewKG(nil)
	kg.AddEntity("DJI Technology Co.", ontology.TypeCompany, "DJI", "dji technology")
	kg.AddEntity("Dow Jones Index", ontology.TypeTopic, "DJI")
	cands := kg.Candidates("dji")
	if len(cands) != 2 {
		t.Fatalf("Candidates(dji) = %v, want both entities", cands)
	}
	if got := kg.Candidates("DJI Technology Co."); len(got) != 1 {
		t.Fatalf("exact name lookup = %v", got)
	}
}

func TestEntityTypeUpgrade(t *testing.T) {
	kg := NewKG(nil)
	kg.AddEntity("Windermere", ontology.TypeAny)
	kg.AddEntity("Windermere", ontology.TypeCompany)
	typ, ok := kg.EntityType("Windermere")
	if !ok || typ != ontology.TypeCompany {
		t.Fatalf("type = %v, %v; want Company", typ, ok)
	}
}

// TestEntityTypeUpgradeHappensOnce: a generic entity is upgraded by the
// first specific type it is given and then keeps it. A later specific type
// neither replaces it nor logs a write; before the label became the type's
// only copy, each repeat logged another and the last type won.
func TestEntityTypeUpgradeHappensOnce(t *testing.T) {
	kg := NewKG(nil)
	var kinds []graph.MutationKind
	kg.Graph().AddMutationHook(func(m graph.Mutation) { kinds = append(kinds, m.Kind) })
	kg.AddEntity("Windermere", ontology.TypeAny)
	kg.AddEntity("Windermere", ontology.TypeCompany)
	kg.AddEntity("Windermere", ontology.TypePerson)
	kg.AddEntity("Windermere", ontology.TypePerson)
	if typ, _ := kg.EntityType("Windermere"); typ != ontology.TypeCompany {
		t.Errorf("type = %v, want Company", typ)
	}
	if want := []graph.MutationKind{graph.MutAddVertex, graph.MutSetVertexLabel}; !slices.Equal(kinds, want) {
		t.Errorf("logged %v, want %v", kinds, want)
	}
	if e := kg.Graph().Epoch(); e != 2 {
		t.Errorf("epoch = %d, want 2", e)
	}
}

func TestNeighborhoodHops(t *testing.T) {
	kg := NewKG(nil)
	kg.AddFact(curated("A Co", "acquired", "B Co"))
	kg.AddFact(curated("B Co", "acquired", "C Co"))
	kg.AddFact(curated("C Co", "acquired", "D Co"))
	nb1 := kg.Neighborhood("A Co", 1)
	if len(nb1) != 1 || nb1[0] != "B Co" {
		t.Fatalf("1-hop = %v", nb1)
	}
	nb2 := kg.Neighborhood("A Co", 2)
	if len(nb2) != 2 {
		t.Fatalf("2-hop = %v", nb2)
	}
	kg.AddFact(curated("A Co", "acquired", "A Co")) // a self-loop never lists the source
	if nb1 := kg.Neighborhood("A Co", 1); len(nb1) != 1 || nb1[0] != "B Co" {
		t.Fatalf("1-hop with self-loop = %v", nb1)
	}
}

// neighborhoodSSSP is the answer Neighborhood gave before its bounded walk:
// hop counts by BFS over the whole connected component, then filtered to
// 0 < d <= hops.
func neighborhoodSSSP(kg *KG, name string, hops int) []string {
	src, ok := kg.Entity(name)
	if !ok || hops <= 0 {
		return nil
	}
	dist := map[graph.VertexID]int{src: 0}
	for frontier := []graph.VertexID{src}; len(frontier) > 0; {
		var next []graph.VertexID
		for _, u := range frontier {
			for _, v := range kg.Graph().Neighbors(u) {
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	var out []string
	for v, d := range dist {
		if d > 0 && d <= hops {
			if n, ok := kg.EntityName(v); ok {
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestNeighborhoodMatchesSSSPReference pins the depth-bounded walk to the
// whole-component reference on random multigraphs: parallel edges,
// self-loops, removed facts, isolated entities and hops 1–3.
func TestNeighborhoodMatchesSSSPReference(t *testing.T) {
	names := []string{"A Co", "B Co", "C Co", "D Co", "E Co", "F Co", "G Co", "H Co", "I Co", "J Co"}
	prop := func(ends []uint8, drop []bool, hops uint8) bool {
		kg := NewKG(nil)
		for _, n := range names {
			kg.AddEntity(n, ontology.TypeCompany)
		}
		for i := 0; i+1 < len(ends); i += 2 {
			id, err := kg.AddFact(curated(names[int(ends[i])%len(names)], "acquired", names[int(ends[i+1])%len(names)]))
			if err != nil {
				t.Fatal(err)
			}
			if j := i / 2; j < len(drop) && drop[j] {
				kg.removeFact(id)
			}
		}
		h := 1 + int(hops)%3
		for _, n := range names {
			if got, want := kg.Neighborhood(n, h), neighborhoodSSSP(kg, n, h); !slices.Equal(got, want) {
				t.Logf("Neighborhood(%q, %d) = %v, reference %v", n, h, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if got := NewKG(nil).Neighborhood("Nobody", 2); got != nil {
		t.Fatalf("unknown entity neighborhood = %v", got)
	}
}

func TestStats(t *testing.T) {
	kg := NewKG(nil)
	kg.AddFact(curated("DJI", "headquarteredIn", "Shenzhen"))
	kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.35, day(1)))
	kg.AddFact(extracted("DJI", "acquired", "RoboPix", 0.95, day(2)))
	s := kg.Stats()
	if s.Facts != 3 || s.CuratedFacts != 1 || s.ExtractedFacts != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.PredicateCounts["acquired"] != 2 {
		t.Errorf("predicate counts = %v", s.PredicateCounts)
	}
	if s.SourceCounts["wsj"] != 2 || s.SourceCounts["yago"] != 1 {
		t.Errorf("source counts = %v", s.SourceCounts)
	}
	if s.ConfidenceHistogram[3] != 1 || s.ConfidenceHistogram[9] != 2 {
		t.Errorf("hist = %v", s.ConfidenceHistogram)
	}
	if s.MeanConfidence < 0.64 || s.MeanConfidence > 0.66 {
		t.Errorf("mean confidence = %v", s.MeanConfidence)
	}
}

func TestExportDOTColors(t *testing.T) {
	kg := NewKG(nil)
	kg.AddFact(curated("DJI", "headquarteredIn", "Shenzhen"))
	kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.8, day(1)))
	var buf bytes.Buffer
	if err := kg.ExportDOT(&buf, "DJI"); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	if !strings.Contains(dot, "color=red") {
		t.Error("curated edge not red")
	}
	if !strings.Contains(dot, "color=blue") || !strings.Contains(dot, "p=0.80") {
		t.Error("extracted edge not blue with confidence")
	}
}

func TestExportJSONRoundtrip(t *testing.T) {
	kg := NewKG(nil)
	kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.8, day(1)))
	var buf bytes.Buffer
	if err := kg.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["subject"] != "DJI" || got[0]["time"] != "2015-01-02" {
		t.Fatalf("json = %v", got)
	}
}

// Property: NumFacts always equals the number of edges in the backing graph,
// under random interleavings of adds and evictions.
func TestFactEdgeParityQuick(t *testing.T) {
	subjects := []string{"A Co", "B Co", "C Co", "D Co"}
	f := func(ops []uint8) bool {
		kg := NewKG(nil)
		ts := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1, 2:
				s := subjects[int(op)%len(subjects)]
				o := subjects[(int(op)+1)%len(subjects)]
				kg.AddFact(extracted(s, "acquired", o, 0.5, day(ts)))
				ts++
			case 3:
				kg.EvictBefore(day(ts - 1))
			}
		}
		return kg.NumFacts() == kg.Graph().NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
