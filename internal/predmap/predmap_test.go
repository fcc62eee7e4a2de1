package predmap

import (
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/extract"
	"nous/internal/ontology"
)

func raw(a1, rel, a2 string, t1, t2 ontology.EntityType) extract.RawTriple {
	return extract.RawTriple{
		Arg1: a1, RelNorm: rel, Arg2: a2,
		Arg1Type: t1, Arg2Type: t2,
		Confidence: 0.9, DocID: "d", Source: "s",
		Date: time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC),
	}
}

func seeded() *Mapper {
	m := NewMapper(nil, DefaultConfig())
	m.AddDefaultSeeds()
	return m
}

func TestSeedMapping(t *testing.T) {
	m := seeded()
	tr, ok := m.Map(raw("DJI", "acquire", "Aeros", ontology.TypeCompany, ontology.TypeCompany))
	if !ok {
		t.Fatal("seed phrase not mapped")
	}
	if tr.Predicate != "acquired" || tr.Subject != "DJI" || tr.Object != "Aeros" {
		t.Fatalf("triple = %+v", tr)
	}
	if tr.Confidence <= 0 || tr.Confidence > 0.9 {
		t.Errorf("confidence = %v, want rt.Confidence * weight", tr.Confidence)
	}
	if tr.Provenance.DocID != "d" || tr.Provenance.Time.IsZero() {
		t.Errorf("provenance lost: %+v", tr.Provenance)
	}
}

func TestInvertedRule(t *testing.T) {
	m := seeded()
	// "GoPro hired Jane Smith" → worksFor(Jane Smith, GoPro)
	tr, ok := m.Map(raw("GoPro", "hire", "Jane Smith", ontology.TypeCompany, ontology.TypePerson))
	if !ok {
		t.Fatal("inverted rule not applied")
	}
	if tr.Predicate != "worksFor" || tr.Subject != "Jane Smith" || tr.Object != "GoPro" {
		t.Fatalf("triple = %+v", tr)
	}
}

func TestFoundedByInversion(t *testing.T) {
	m := seeded()
	// passive-inverted extraction already yields (founder, found, company)
	tr, ok := m.Map(raw("Frank Wang", "found", "DJI", ontology.TypePerson, ontology.TypeCompany))
	if !ok {
		t.Fatal("found rule missing")
	}
	if tr.Predicate != "foundedBy" || tr.Subject != "DJI" || tr.Object != "Frank Wang" {
		t.Fatalf("triple = %+v", tr)
	}
}

func TestTypeIncompatibleRejected(t *testing.T) {
	m := seeded()
	// a Person cannot acquire: domain is Company
	if tr, ok := m.Map(raw("Jane Smith", "acquire", "Aeros", ontology.TypePerson, ontology.TypeCompany)); ok {
		t.Fatalf("type violation accepted: %+v", tr)
	}
}

func TestUnknownTypesAccepted(t *testing.T) {
	m := seeded()
	tr, ok := m.Map(raw("Foo", "acquire", "Bar", ontology.TypeAny, ontology.TypeAny))
	if !ok {
		t.Fatal("unknown-typed args should map (types assigned on insert)")
	}
	if tr.SubjectType != "" || tr.ObjectType != "" {
		t.Errorf("Any types should stay empty for KG defaulting: %+v", tr)
	}
}

func TestNegatedRejected(t *testing.T) {
	m := seeded()
	rt := raw("DJI", "acquire", "Aeros", ontology.TypeCompany, ontology.TypeCompany)
	rt.Negated = true
	if _, ok := m.Map(rt); ok {
		t.Fatal("negated triple mapped")
	}
}

func TestUnmappablePhrase(t *testing.T) {
	m := seeded()
	if _, ok := m.Map(raw("Shares", "rise", "3 percent", ontology.TypeAny, ontology.TypeAny)); ok {
		t.Fatal("noise phrase mapped")
	}
}

func TestPhraseNormalization(t *testing.T) {
	m := NewMapper(nil, DefaultConfig())
	m.AddSeed("  Team   Up With ", "partnersWith", false)
	if rs := m.Rules("team up with"); len(rs) != 1 {
		t.Fatalf("normalization failed: %v", rs)
	}
}

func TestLearnExpandsRules(t *testing.T) {
	kg := core.NewKG(nil)
	// KB knows these acquisitions.
	pairs := [][2]string{{"A Co", "B Co"}, {"C Co", "D Co"}, {"E Co", "F Co"}}
	for _, p := range pairs {
		if _, err := kg.AddFact(core.Triple{Subject: p[0], Predicate: "acquired", Object: p[1],
			Confidence: 1, Curated: true}); err != nil {
			t.Fatal(err)
		}
	}
	m := seeded()
	if m.Rules("gobble up") != nil {
		t.Fatal("phrase already known")
	}
	var raws []extract.RawTriple
	for _, p := range pairs {
		raws = append(raws, raw(p[0], "gobble up", p[1], ontology.TypeCompany, ontology.TypeCompany))
	}
	learned := m.Learn(raws, kg)
	if learned != 1 {
		t.Fatalf("learned = %d rules, want 1", learned)
	}
	tr, ok := m.Map(raw("X Co", "gobble up", "Y Co", ontology.TypeCompany, ontology.TypeCompany))
	if !ok || tr.Predicate != "acquired" {
		t.Fatalf("learned rule not applied: %+v ok=%v", tr, ok)
	}
	lr := m.LearnedRules()
	if len(lr) != 1 || lr[0].Seed {
		t.Fatalf("LearnedRules = %+v", lr)
	}
}

func TestLearnInvertedEvidence(t *testing.T) {
	kg := core.NewKG(nil)
	people := [][2]string{{"P1 Smith", "A Co"}, {"P2 Khan", "B Co"}, {"P3 Lee", "C Co"}}
	for _, p := range people {
		if _, err := kg.AddFact(core.Triple{Subject: p[0], Predicate: "worksFor", Object: p[1],
			SubjectType: ontology.TypePerson, Confidence: 1, Curated: true}); err != nil {
			t.Fatal(err)
		}
	}
	m := seeded()
	var raws []extract.RawTriple
	for _, p := range people {
		// "A Co brought aboard P1 Smith" — company first: inverted evidence
		raws = append(raws, raw(p[1], "bring aboard", p[0], ontology.TypeCompany, ontology.TypePerson))
	}
	if learned := m.Learn(raws, kg); learned != 1 {
		t.Fatalf("learned = %d", learned)
	}
	tr, ok := m.Map(raw("Z Co", "bring aboard", "New Person", ontology.TypeCompany, ontology.TypePerson))
	if !ok || tr.Predicate != "worksFor" || tr.Subject != "New Person" {
		t.Fatalf("inverted learned rule wrong: %+v ok=%v", tr, ok)
	}
}

func TestLearnRespectsThresholds(t *testing.T) {
	kg := core.NewKG(nil)
	kg.AddFact(core.Triple{Subject: "A Co", Predicate: "acquired", Object: "B Co", Confidence: 1, Curated: true})
	m := NewMapper(nil, DefaultConfig())
	raws := []extract.RawTriple{raw("A Co", "swallow", "B Co", ontology.TypeCompany, ontology.TypeCompany)}
	if learned := m.Learn(raws, kg); learned != 0 {
		t.Fatalf("learned %d rules below support threshold", learned)
	}
}

func TestLearnIdempotent(t *testing.T) {
	kg := core.NewKG(nil)
	for _, p := range [][2]string{{"A Co", "B Co"}, {"C Co", "D Co"}, {"E Co", "F Co"}} {
		kg.AddFact(core.Triple{Subject: p[0], Predicate: "acquired", Object: p[1], Confidence: 1, Curated: true})
	}
	m := seeded()
	var raws []extract.RawTriple
	for _, p := range [][2]string{{"A Co", "B Co"}, {"C Co", "D Co"}, {"E Co", "F Co"}} {
		raws = append(raws, raw(p[0], "gobble up", p[1], ontology.TypeCompany, ontology.TypeCompany))
	}
	if n := m.Learn(raws, kg); n != 1 {
		t.Fatalf("first learn = %d", n)
	}
	if n := m.Learn(nil, kg); n != 0 {
		t.Fatalf("re-learn created %d duplicate rules", n)
	}
}

func TestNumRulesCountsSeeds(t *testing.T) {
	m := seeded()
	if m.NumRules() < 50 {
		t.Fatalf("expected a rich seed set, got %d rules", m.NumRules())
	}
}
