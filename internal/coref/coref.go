// Package coref implements the lightweight co-reference resolution NOUS's
// extraction pipeline relies on (§3.2): pronouns ("it", "they", "he"),
// definite nominals ("the company", "the agency") and partial-name mentions
// ("Smith" after "Jane Smith") are resolved to the most recent compatible
// antecedent in document order.
package coref

import (
	"strings"

	"nous/internal/ner"
	"nous/internal/ontology"
)

// Tracker accumulates mentions in reading order and answers resolution
// queries. One Tracker serves one document. Grammatical subjects are more
// salient antecedents than other mentions, matching the strong subject
// preference of pronouns in news text.
type Tracker struct {
	ont      *ontology.Ontology
	history  []ner.Mention // most recent last
	subjects []ner.Mention // most recent last
	limit    int
}

// NewTracker returns a tracker for a document. A nil ontology gets the
// default taxonomy.
func NewTracker(ont *ontology.Ontology) *Tracker {
	if ont == nil {
		ont = ontology.Default()
	}
	return &Tracker{ont: ont, limit: 40}
}

// Observe records a mention as a potential antecedent.
func (t *Tracker) Observe(m ner.Mention) {
	if strings.TrimSpace(m.Surface) == "" {
		return
	}
	t.history = append(t.history, m)
	if len(t.history) > t.limit {
		t.history = t.history[len(t.history)-t.limit:]
	}
}

// ObserveSubject records a mention that served as a grammatical subject;
// subjects outrank regular mentions during resolution.
func (t *Tracker) ObserveSubject(m ner.Mention) {
	if strings.TrimSpace(m.Surface) == "" {
		return
	}
	t.subjects = append(t.subjects, m)
	if len(t.subjects) > t.limit {
		t.subjects = t.subjects[len(t.subjects)-t.limit:]
	}
	t.Observe(m)
}

// nominalHeads maps the head noun of a definite nominal ("the company") to
// the entity type the antecedent must be compatible with.
var nominalHeads = map[string]ontology.EntityType{
	"company": ontology.TypeCompany, "firm": ontology.TypeCompany,
	"startup": ontology.TypeCompany, "maker": ontology.TypeCompany,
	"manufacturer": ontology.TypeCompany, "giant": ontology.TypeCompany,
	"agency": ontology.TypeAgency, "regulator": ontology.TypeAgency,
	"organization": ontology.TypeOrganization,
	"drone":        ontology.TypeProduct, "device": ontology.TypeProduct,
	"product": ontology.TypeProduct, "aircraft": ontology.TypeProduct,
	"executive": ontology.TypePerson, "man": ontology.TypePerson,
	"woman": ontology.TypePerson, "analyst": ontology.TypePerson,
}

// ResolvePronoun resolves "it"/"they"/"he"/"she" (any case) to the most
// recent compatible antecedent.
func (t *Tracker) ResolvePronoun(pronoun string) (ner.Mention, bool) {
	switch strings.ToLower(pronoun) {
	case "it", "its", "itself":
		return t.mostRecentWhere(func(m ner.Mention) bool {
			return !t.isType(m, ontology.TypePerson)
		})
	case "they", "them", "their":
		// Organizations are routinely pluralised in news text.
		return t.mostRecentWhere(func(m ner.Mention) bool {
			return !t.isType(m, ontology.TypePerson)
		})
	case "he", "she", "him", "her", "his":
		return t.mostRecentWhere(func(m ner.Mention) bool {
			return t.isType(m, ontology.TypePerson)
		})
	}
	return ner.Mention{}, false
}

// ResolveNominal resolves a definite nominal by its head noun ("company",
// "agency", "drone", …) to the most recent antecedent of a compatible type.
func (t *Tracker) ResolveNominal(head string) (ner.Mention, bool) {
	want, ok := nominalHeads[strings.ToLower(head)]
	if !ok {
		return ner.Mention{}, false
	}
	if m, ok := t.mostRecentWhere(func(m ner.Mention) bool { return t.isType(m, want) }); ok {
		return m, true
	}
	// Untyped antecedents are acceptable for corporate nominals: extracted
	// news text is organisation-heavy.
	if want == ontology.TypeCompany || want == ontology.TypeOrganization {
		return t.mostRecentWhere(func(m ner.Mention) bool { return m.Type == ontology.TypeAny })
	}
	return ner.Mention{}, false
}

// ResolvePartial resolves a short mention ("Smith", "Apex") to the most
// recent antecedent whose surface contains it as a leading or trailing word.
func (t *Tracker) ResolvePartial(surface string) (ner.Mention, bool) {
	s := strings.ToLower(strings.TrimSpace(surface))
	if s == "" {
		return ner.Mention{}, false
	}
	return t.mostRecentWhere(func(m ner.Mention) bool {
		full := strings.ToLower(m.Surface)
		if full == s {
			return false // same surface is not a partial match
		}
		return strings.HasPrefix(full, s+" ") || strings.HasSuffix(full, " "+s)
	})
}

// IsNominalHead reports whether head is a resolvable definite-nominal head.
func IsNominalHead(head string) bool {
	_, ok := nominalHeads[strings.ToLower(head)]
	return ok
}

func (t *Tracker) mostRecentWhere(pred func(ner.Mention) bool) (ner.Mention, bool) {
	for i := len(t.subjects) - 1; i >= 0; i-- {
		if pred(t.subjects[i]) {
			return t.subjects[i], true
		}
	}
	for i := len(t.history) - 1; i >= 0; i-- {
		if pred(t.history[i]) {
			return t.history[i], true
		}
	}
	return ner.Mention{}, false
}

func (t *Tracker) isType(m ner.Mention, want ontology.EntityType) bool {
	if m.Type == ontology.TypeAny {
		return false
	}
	return t.ont.IsSubtype(m.Type, want)
}
