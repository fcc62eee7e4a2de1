// Package predmap maps raw OpenIE relation phrases onto the target
// ontology's predicates (§3.3). Following the Extreme Extraction recipe of
// Freedman et al. that the paper adopts, every predicate model is
// bootstrapped with 5–10 seed phrases and then expanded semi-supervised:
// raw triples whose argument pair is already related in the knowledge base
// provide distant-supervision labels for new phrases, which are admitted
// when their estimated precision clears a threshold. Rules may be inverted
// ("X hired P" → worksFor(P, X)) and are filtered by the ontology's
// domain/range constraints.
package predmap

import (
	"sort"
	"strings"

	"nous/internal/core"
	"nous/internal/extract"
	"nous/internal/ontology"
)

// Rule maps a normalized relation phrase to a predicate.
type Rule struct {
	Phrase    string
	Predicate string
	// Invert swaps subject and object when applying the rule.
	Invert bool
	// Weight estimates the rule's precision in (0,1]; seeds carry 0.95.
	Weight float64
	// Seed marks hand-written bootstrap rules.
	Seed bool
}

// FactLookup answers which predicates already relate an entity pair; the
// dynamic KG implements it.
type FactLookup interface {
	PredicatesBetween(subject, object string) []string
}

// Config is empty: expansion's thresholds are the constants below.
type Config struct{}

// DefaultConfig returns the empty Config.
func DefaultConfig() Config { return Config{} }

// The bootstrap regime of the paper. A phrase becomes a rule once
// minSupport distant-supervision matches name one predicate and at least
// minPrecision of its labelled occurrences agree with that predicate. Seed
// rules carry seedWeight.
const (
	minSupport   = 3
	minPrecision = 0.6
	seedWeight   = 0.95
)

// Mapper maps raw triples into ontology triples.
type Mapper struct {
	ont   *ontology.Ontology
	rules map[string][]Rule // normalized phrase -> rules

	// phraseEvidence accumulates distant-supervision counts:
	// phrase -> predicate(+"!inv" suffix for inverted evidence) -> count.
	phraseEvidence map[string]map[string]int
}

// NewMapper returns a mapper with no rules. Call AddDefaultSeeds (or
// AddSeed) before mapping.
func NewMapper(ont *ontology.Ontology, _ Config) *Mapper {
	if ont == nil {
		ont = ontology.Default()
	}
	return &Mapper{
		ont:            ont,
		rules:          make(map[string][]Rule),
		phraseEvidence: make(map[string]map[string]int),
	}
}

// AddSeed installs a hand-written bootstrap rule.
func (m *Mapper) AddSeed(phrase, predicate string, invert bool) {
	m.addRule(Rule{Phrase: normalize(phrase), Predicate: predicate, Invert: invert,
		Weight: seedWeight, Seed: true})
}

func (m *Mapper) addRule(r Rule) {
	for i, old := range m.rules[r.Phrase] {
		if old.Predicate == r.Predicate && old.Invert == r.Invert {
			if r.Weight > old.Weight {
				m.rules[r.Phrase][i].Weight = r.Weight
			}
			return
		}
	}
	m.rules[r.Phrase] = append(m.rules[r.Phrase], r)
}

// AddDefaultSeeds installs the bootstrap lexicon for the default ontology:
// 5–10 phrases per predicate, mirroring the paper's setup.
func (m *Mapper) AddDefaultSeeds() {
	seeds := []struct {
		pred   string
		invert bool
		phrase []string
	}{
		{"acquired", false, []string{"acquire", "buy", "purchase", "take over", "merge with", "complete purchase of", "agree to buy"}},
		{"partnersWith", false, []string{"partner with", "team up with", "announce partnership with", "collaborate with", "sign agreement with"}},
		{"manufactures", false, []string{"manufacture", "make", "unveil", "launch", "introduce", "produce", "release"}},
		{"deploys", false, []string{"deploy", "use", "employ", "use for", "operate"}},
		{"invests", false, []string{"invest in", "back", "lead funding round in", "fund"}},
		{"develops", false, []string{"develop", "demonstrate", "showcase", "work on", "build"}},
		{"approves", false, []string{"approve", "grant license for", "clear", "authorize", "certify"}},
		{"bans", false, []string{"ban", "ground", "prohibit", "bar"}},
		{"worksFor", false, []string{"join", "work for", "serve at"}},
		{"worksFor", true, []string{"hire", "appoint", "promote", "name"}},
		{"headquarteredIn", false, []string{"base in", "headquarter in", "locate in"}},
		{"ceoOf", false, []string{"be chief executive of", "run", "lead", "head"}},
		{"foundedBy", true, []string{"found", "establish", "start"}},
		{"competesWith", false, []string{"compete with", "rival"}},
		{"suppliesTo", false, []string{"supply", "provide to", "sell to"}},
		{"cites", false, []string{"cite", "reference", "build on"}},
		{"authorOf", false, []string{"author", "write", "publish"}},
		{"publishedAt", false, []string{"appear at", "publish at"}},
		{"accessed", false, []string{"access", "open", "read"}},
		{"loggedInto", false, []string{"log into", "log in to"}},
		{"emailed", false, []string{"email", "send message to"}},
		{"copiedTo", false, []string{"copy to", "transfer to"}},
	}
	for _, s := range seeds {
		for _, p := range s.phrase {
			m.AddSeed(p, s.pred, s.invert)
		}
	}
}

// Rules returns the current rules for a phrase (nil if none).
func (m *Mapper) Rules(phrase string) []Rule {
	return m.rules[normalize(phrase)]
}

// NumRules returns the total rule count.
func (m *Mapper) NumRules() int {
	n := 0
	for _, rs := range m.rules {
		n += len(rs)
	}
	return n
}

// Map converts a raw extraction into an ontology triple. It returns false
// when no rule matches, the raw triple is negated, or every matching rule
// violates the predicate's type constraints.
func (m *Mapper) Map(rt extract.RawTriple) (core.Triple, bool) {
	if rt.Negated {
		return core.Triple{}, false
	}
	rules := m.rules[normalize(rt.RelNorm)]
	if len(rules) == 0 {
		return core.Triple{}, false
	}
	best := Rule{}
	found := false
	for _, r := range rules {
		subjT, objT := rt.Arg1Type, rt.Arg2Type
		if r.Invert {
			subjT, objT = objT, subjT
		}
		if !m.typeOK(r.Predicate, subjT, objT) {
			continue
		}
		if !found || r.Weight > best.Weight {
			best = r
			found = true
		}
	}
	if !found {
		return core.Triple{}, false
	}
	subj, obj := rt.Arg1, rt.Arg2
	subjT, objT := rt.Arg1Type, rt.Arg2Type
	if best.Invert {
		subj, obj = obj, subj
		subjT, objT = objT, subjT
	}
	t := core.Triple{
		Subject:    subj,
		Predicate:  best.Predicate,
		Object:     obj,
		Confidence: rt.Confidence * best.Weight,
		Provenance: core.Provenance{
			Source:   rt.Source,
			DocID:    rt.DocID,
			Sentence: rt.Sentence,
			Time:     rt.Date,
		},
	}
	if subjT != ontology.TypeAny {
		t.SubjectType = subjT
	}
	if objT != ontology.TypeAny {
		t.ObjectType = objT
	}
	return t, true
}

// typeOK checks domain/range compatibility treating TypeAny as unknown
// (acceptable: the KG assigns the predicate's declared types on insert).
func (m *Mapper) typeOK(pred string, subj, obj ontology.EntityType) bool {
	p, ok := m.ont.Predicate(pred)
	if !ok {
		return false
	}
	if subj != ontology.TypeAny && !m.ont.IsSubtype(subj, p.Domain) {
		return false
	}
	if obj != ontology.TypeAny && !m.ont.IsSubtype(obj, p.Range) {
		return false
	}
	return true
}

// Learn runs one round of semi-supervised expansion over a batch of raw
// triples: phrases whose argument pairs are already related in the KB
// accumulate evidence, and phrases clearing the support and precision
// thresholds become rules. It returns the number of new rules learned.
func (m *Mapper) Learn(raws []extract.RawTriple, kb FactLookup) int {
	for _, rt := range raws {
		if rt.Negated {
			continue
		}
		phrase := normalize(rt.RelNorm)
		if phrase == "" {
			continue
		}
		for _, pred := range kb.PredicatesBetween(rt.Arg1, rt.Arg2) {
			m.bumpEvidence(phrase, pred)
		}
		for _, pred := range kb.PredicatesBetween(rt.Arg2, rt.Arg1) {
			m.bumpEvidence(phrase, pred+"!inv")
		}
	}

	learned := 0
	for phrase, byPred := range m.phraseEvidence {
		total := 0
		bestPred, bestCount := "", 0
		for pred, c := range byPred {
			total += c
			if c > bestCount || (c == bestCount && pred < bestPred) {
				bestPred, bestCount = pred, c
			}
		}
		if bestCount < minSupport {
			continue
		}
		precision := float64(bestCount) / float64(total)
		if precision < minPrecision {
			continue
		}
		invert := strings.HasSuffix(bestPred, "!inv")
		pred := strings.TrimSuffix(bestPred, "!inv")
		if m.hasRule(phrase, pred, invert) {
			continue
		}
		m.addRule(Rule{Phrase: phrase, Predicate: pred, Invert: invert, Weight: precision})
		learned++
	}
	return learned
}

func (m *Mapper) bumpEvidence(phrase, key string) {
	byPred, ok := m.phraseEvidence[phrase]
	if !ok {
		byPred = make(map[string]int)
		m.phraseEvidence[phrase] = byPred
	}
	byPred[key]++
}

func (m *Mapper) hasRule(phrase, pred string, invert bool) bool {
	for _, r := range m.rules[phrase] {
		if r.Predicate == pred && r.Invert == invert {
			return true
		}
	}
	return false
}

// LearnedRules returns all non-seed rules, sorted by phrase.
func (m *Mapper) LearnedRules() []Rule {
	var out []Rule
	for _, rs := range m.rules {
		for _, r := range rs {
			if !r.Seed {
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phrase < out[j].Phrase })
	return out
}

func normalize(phrase string) string {
	return strings.Join(strings.Fields(strings.ToLower(phrase)), " ")
}
