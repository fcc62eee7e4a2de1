package ontology

import "testing"

func TestDefaultOntologyWellFormed(t *testing.T) {
	o := Default()
	if len(o.Predicates()) < 20 {
		t.Fatalf("expected a rich default ontology, got %d predicates", len(o.Predicates()))
	}
	for _, name := range o.Predicates() {
		p, ok := o.Predicate(name)
		if !ok {
			t.Fatalf("Predicate(%q) missing", name)
		}
		if !o.HasType(p.Domain) || !o.HasType(p.Range) {
			t.Errorf("predicate %q has unknown types %q/%q", name, p.Domain, p.Range)
		}
	}
}

func TestSubtypeChain(t *testing.T) {
	o := Default()
	cases := []struct {
		a, b EntityType
		want bool
	}{
		{TypeCompany, TypeOrganization, true},
		{TypeCompany, TypeAgent, true},
		{TypeCompany, TypeAny, true},
		{TypeCompany, TypeCompany, true},
		{TypeOrganization, TypeCompany, false},
		{TypePerson, TypeOrganization, false},
		{TypeCity, TypeLocation, true},
		{TypeLocation, TypeAgent, false},
	}
	for _, c := range cases {
		if got := o.IsSubtype(c.a, c.b); got != c.want {
			t.Errorf("IsSubtype(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompatible(t *testing.T) {
	o := Default()
	cases := []struct {
		pred       string
		subj, obj  EntityType
		compatible bool
	}{
		{"acquired", TypeCompany, TypeCompany, true},
		{"acquired", TypePerson, TypeCompany, false},
		{"worksFor", TypePerson, TypeCompany, true}, // Company ⊑ Organization
		{"worksFor", TypeCompany, TypePerson, false},
		{"headquarteredIn", TypeCompany, TypeCity, true},
		{"nosuch", TypeCompany, TypeCompany, false},
		{"relatedTo", TypeEvent, TypePaper, true}, // Any/Any
	}
	for _, c := range cases {
		if got := o.Compatible(c.pred, c.subj, c.obj); got != c.compatible {
			t.Errorf("Compatible(%s,%s,%s) = %v, want %v", c.pred, c.subj, c.obj, got, c.compatible)
		}
	}
}

func TestAddPredicateValidation(t *testing.T) {
	o := New()
	if err := o.AddPredicate(Predicate{Name: "", Domain: TypeAny, Range: TypeAny}); err == nil {
		t.Error("empty name accepted")
	}
	if err := o.AddPredicate(Predicate{Name: "x", Domain: "Bogus", Range: TypeAny}); err == nil {
		t.Error("unknown domain accepted")
	}
	if err := o.AddPredicate(Predicate{Name: "x", Domain: TypeAny, Range: "Bogus"}); err == nil {
		t.Error("unknown range accepted")
	}
	if err := o.AddPredicate(Predicate{Name: "x", Domain: TypePerson, Range: TypeCompany}); err != nil {
		t.Errorf("valid predicate rejected: %v", err)
	}
}

func TestFunctionalAndSymmetricFlags(t *testing.T) {
	o := Default()
	hq, _ := o.Predicate("headquarteredIn")
	if !hq.Functional {
		t.Error("headquarteredIn should be functional")
	}
	pw, _ := o.Predicate("partnersWith")
	if !pw.Symmetric {
		t.Error("partnersWith should be symmetric")
	}
	acq, _ := o.Predicate("acquired")
	if acq.Functional || acq.Symmetric {
		t.Error("acquired should be neither functional nor symmetric")
	}
}
