// Package ontology defines the target ontology NOUS maps raw extracted
// triples onto: a set of typed predicates (with domain and range
// constraints) over a small type taxonomy with subsumption. The paper's
// pipeline maps OpenIE relation phrases to these predicates (§3.3); the
// curated KB (the YAGO2 stand-in) is expressed directly in this vocabulary.
package ontology

import (
	"fmt"
)

// EntityType names a node type in the taxonomy, e.g. "Company".
type EntityType string

// Common entity types. The taxonomy below relates them.
const (
	TypeAny          EntityType = "Any"
	TypeAgent        EntityType = "Agent"
	TypePerson       EntityType = "Person"
	TypeOrganization EntityType = "Organization"
	TypeCompany      EntityType = "Company"
	TypeAgency       EntityType = "Agency"
	TypeUniversity   EntityType = "University"
	TypeLocation     EntityType = "Location"
	TypeCity         EntityType = "City"
	TypeCountry      EntityType = "Country"
	TypeProduct      EntityType = "Product"
	TypeTechnology   EntityType = "Technology"
	TypeEvent        EntityType = "Event"
	TypePaper        EntityType = "Paper"
	TypeTopic        EntityType = "Topic"
	TypeResource     EntityType = "Resource" // files/hosts in the insider-threat domain
)

// Predicate is a typed relation in the target ontology.
type Predicate struct {
	Name   string
	Domain EntityType // subject type
	Range  EntityType // object type
	// Functional predicates admit at most one object per subject
	// (e.g. headquarteredIn); used as a quality-control rule.
	Functional bool
	// Symmetric predicates imply their own inverse (e.g. partnersWith).
	Symmetric bool
}

// Ontology is a set of predicates plus a type taxonomy.
type Ontology struct {
	predicates map[string]Predicate
	parent     map[EntityType]EntityType
}

// New returns an empty ontology with the default taxonomy.
func New() *Ontology {
	o := &Ontology{
		predicates: make(map[string]Predicate),
		parent:     make(map[EntityType]EntityType),
	}
	// default taxonomy
	o.AddType(TypeAgent, TypeAny)
	o.AddType(TypePerson, TypeAgent)
	o.AddType(TypeOrganization, TypeAgent)
	o.AddType(TypeCompany, TypeOrganization)
	o.AddType(TypeAgency, TypeOrganization)
	o.AddType(TypeUniversity, TypeOrganization)
	o.AddType(TypeLocation, TypeAny)
	o.AddType(TypeCity, TypeLocation)
	o.AddType(TypeCountry, TypeLocation)
	o.AddType(TypeProduct, TypeAny)
	o.AddType(TypeTechnology, TypeAny)
	o.AddType(TypeEvent, TypeAny)
	o.AddType(TypePaper, TypeAny)
	o.AddType(TypeTopic, TypeAny)
	o.AddType(TypeResource, TypeAny)
	return o
}

// Default returns the ontology used by the news/business-intelligence
// domain, covering the predicates the demo's drone use case needs, plus the
// citation-analytics and insider-threat domains from §3.1.
func Default() *Ontology {
	o := New()
	for _, p := range []Predicate{
		// business / drone domain
		{Name: "acquired", Domain: TypeCompany, Range: TypeCompany},
		{Name: "manufactures", Domain: TypeCompany, Range: TypeProduct},
		{Name: "develops", Domain: TypeCompany, Range: TypeTechnology},
		{Name: "headquarteredIn", Domain: TypeOrganization, Range: TypeLocation, Functional: true},
		{Name: "locatedIn", Domain: TypeLocation, Range: TypeLocation, Functional: true},
		{Name: "worksFor", Domain: TypePerson, Range: TypeOrganization},
		{Name: "ceoOf", Domain: TypePerson, Range: TypeCompany},
		{Name: "foundedBy", Domain: TypeCompany, Range: TypePerson},
		{Name: "invests", Domain: TypeAgent, Range: TypeCompany},
		{Name: "partnersWith", Domain: TypeOrganization, Range: TypeOrganization, Symmetric: true},
		{Name: "competesWith", Domain: TypeCompany, Range: TypeCompany, Symmetric: true},
		{Name: "suppliesTo", Domain: TypeCompany, Range: TypeCompany},
		{Name: "uses", Domain: TypeAgent, Range: TypeProduct},
		{Name: "deploys", Domain: TypeOrganization, Range: TypeProduct},
		{Name: "tests", Domain: TypeOrganization, Range: TypeProduct},
		{Name: "sells", Domain: TypeCompany, Range: TypeProduct},
		{Name: "regulates", Domain: TypeAgency, Range: TypeTechnology},
		{Name: "bans", Domain: TypeAgency, Range: TypeProduct},
		{Name: "approves", Domain: TypeAgency, Range: TypeProduct},
		{Name: "subsidiaryOf", Domain: TypeCompany, Range: TypeCompany, Functional: true},
		{Name: "ownerOf", Domain: TypeAgent, Range: TypeCompany},
		{Name: "type", Domain: TypeAny, Range: TypeTopic},
		{Name: "relatedTo", Domain: TypeAny, Range: TypeAny, Symmetric: true},
		// citation analytics
		{Name: "authorOf", Domain: TypePerson, Range: TypePaper},
		{Name: "cites", Domain: TypePaper, Range: TypePaper},
		{Name: "affiliatedWith", Domain: TypePerson, Range: TypeOrganization},
		{Name: "publishedAt", Domain: TypePaper, Range: TypeEvent},
		// insider threat
		{Name: "accessed", Domain: TypePerson, Range: TypeResource},
		{Name: "copiedTo", Domain: TypeResource, Range: TypeResource},
		{Name: "emailed", Domain: TypePerson, Range: TypePerson},
		{Name: "loggedInto", Domain: TypePerson, Range: TypeResource},
	} {
		if err := o.AddPredicate(p); err != nil {
			panic(err) // static predicate list: must be well-formed
		}
	}
	return o
}

// AddType registers child as a subtype of parent.
func (o *Ontology) AddType(child, parent EntityType) {
	o.parent[child] = parent
}

// AddPredicate registers a predicate. Domain and range types must exist in
// the taxonomy.
func (o *Ontology) AddPredicate(p Predicate) error {
	if p.Name == "" {
		return fmt.Errorf("ontology: predicate with empty name")
	}
	if !o.HasType(p.Domain) {
		return fmt.Errorf("ontology: predicate %q: unknown domain type %q", p.Name, p.Domain)
	}
	if !o.HasType(p.Range) {
		return fmt.Errorf("ontology: predicate %q: unknown range type %q", p.Name, p.Range)
	}
	o.predicates[p.Name] = p
	return nil
}

// HasType reports whether t is in the taxonomy.
func (o *Ontology) HasType(t EntityType) bool {
	if t == TypeAny {
		return true
	}
	_, ok := o.parent[t]
	return ok
}

// Predicate looks up a predicate by name.
func (o *Ontology) Predicate(name string) (Predicate, bool) {
	p, ok := o.predicates[name]
	return p, ok
}

// IsSubtype reports whether a is b or a descendant of b in the taxonomy.
func (o *Ontology) IsSubtype(a, b EntityType) bool {
	if b == TypeAny {
		return true
	}
	for t := a; ; {
		if t == b {
			return true
		}
		p, ok := o.parent[t]
		if !ok || p == t {
			return false
		}
		t = p
	}
}

// Compatible reports whether subject/object types satisfy the predicate's
// domain/range (with subsumption). Unknown predicates are incompatible.
func (o *Ontology) Compatible(pred string, subj, obj EntityType) bool {
	p, ok := o.predicates[pred]
	if !ok {
		return false
	}
	return o.IsSubtype(subj, p.Domain) && o.IsSubtype(obj, p.Range)
}
