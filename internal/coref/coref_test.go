package coref

import (
	"testing"

	"nous/internal/ner"
	"nous/internal/ontology"
)

func m(surface string, typ ontology.EntityType) ner.Mention {
	return ner.Mention{Surface: surface, Type: typ}
}

func TestPronounItResolvesToOrg(t *testing.T) {
	tr := NewTracker(nil)
	tr.Observe(m("DJI", ontology.TypeCompany))
	got, ok := tr.ResolvePronoun("it")
	if !ok || got.Surface != "DJI" {
		t.Fatalf("it → %+v, %v", got, ok)
	}
}

func TestPronounHeResolvesToPerson(t *testing.T) {
	tr := NewTracker(nil)
	tr.Observe(m("DJI", ontology.TypeCompany))
	tr.Observe(m("Frank Wang", ontology.TypePerson))
	got, ok := tr.ResolvePronoun("he")
	if !ok || got.Surface != "Frank Wang" {
		t.Fatalf("he → %+v, %v", got, ok)
	}
	// "it" must skip the person even though it is more recent.
	got, ok = tr.ResolvePronoun("it")
	if !ok || got.Surface != "DJI" {
		t.Fatalf("it → %+v, %v", got, ok)
	}
}

func TestSubjectSalienceBeatsRecency(t *testing.T) {
	tr := NewTracker(nil)
	tr.ObserveSubject(m("DJI", ontology.TypeCompany))
	tr.Observe(m("Aeros Labs", ontology.TypeCompany)) // more recent object
	got, ok := tr.ResolvePronoun("it")
	if !ok || got.Surface != "DJI" {
		t.Fatalf("subject preference violated: it → %+v, %v", got, ok)
	}
}

func TestNominalCompany(t *testing.T) {
	tr := NewTracker(nil)
	tr.Observe(m("Shenzhen", ontology.TypeCity))
	tr.Observe(m("Parrot", ontology.TypeCompany))
	got, ok := tr.ResolveNominal("company")
	if !ok || got.Surface != "Parrot" {
		t.Fatalf("the company → %+v, %v", got, ok)
	}
	got, ok = tr.ResolveNominal("agency")
	if ok {
		t.Fatalf("agency resolved to %+v with no agency observed", got)
	}
}

func TestNominalFallsBackToUntyped(t *testing.T) {
	tr := NewTracker(nil)
	tr.Observe(m("Quadlift Holdings", ontology.TypeAny))
	got, ok := tr.ResolveNominal("company")
	if !ok || got.Surface != "Quadlift Holdings" {
		t.Fatalf("untyped fallback failed: %+v, %v", got, ok)
	}
}

func TestPartialNameResolution(t *testing.T) {
	tr := NewTracker(nil)
	tr.Observe(m("Jane Smith", ontology.TypePerson))
	tr.Observe(m("Apex Robotics", ontology.TypeCompany))
	if got, ok := tr.ResolvePartial("Smith"); !ok || got.Surface != "Jane Smith" {
		t.Fatalf("Smith → %+v, %v", got, ok)
	}
	if got, ok := tr.ResolvePartial("Apex"); !ok || got.Surface != "Apex Robotics" {
		t.Fatalf("Apex → %+v, %v", got, ok)
	}
	if _, ok := tr.ResolvePartial("Apex Robotics"); ok {
		t.Fatal("identical surface must not partial-match itself")
	}
	if _, ok := tr.ResolvePartial("Robo"); ok {
		t.Fatal("substring (non-word) must not match")
	}
}

func TestUnresolvablePronoun(t *testing.T) {
	tr := NewTracker(nil)
	if _, ok := tr.ResolvePronoun("it"); ok {
		t.Fatal("empty tracker resolved a pronoun")
	}
	if _, ok := tr.ResolvePronoun("banana"); ok {
		t.Fatal("non-pronoun resolved")
	}
}

func TestIsPronounAndNominalHead(t *testing.T) {
	if !IsNominalHead("company") || !IsNominalHead("agency") {
		t.Error("nominal heads missing")
	}
	if IsNominalHead("drone-strike") {
		t.Error("unknown head accepted")
	}
}

func TestHistoryBounded(t *testing.T) {
	tr := NewTracker(nil)
	for i := 0; i < 200; i++ {
		tr.Observe(m("Entity", ontology.TypeCompany))
	}
	if len(tr.history) > tr.limit {
		t.Fatalf("history grew to %d, limit %d", len(tr.history), tr.limit)
	}
}
