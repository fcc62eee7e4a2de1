// Package extract implements open information extraction over news text:
// the OpenIE stage of NOUS's pipeline (§3.2). Relation phrases follow the
// ReVerb syntactic constraint — a verb phrase, optionally extended by a
// noun-chain-plus-preposition ("announced a partnership with") — between two
// noun-phrase arguments, with passive-voice inversion, negation detection,
// n-ary prepositional extras and per-triple extraction confidence. Pronoun
// and definite-nominal arguments are resolved through the coref tracker.
package extract

import (
	"strings"
	"time"

	"nous/internal/coref"
	"nous/internal/ner"
	"nous/internal/nlp"
	"nous/internal/ontology"
)

// Document is a unit of input text.
type Document struct {
	ID     string
	Source string
	Date   time.Time
	Text   string
}

// PPArg is an n-ary prepositional argument attached to a triple
// ("for $75 million", "in 2015").
type PPArg struct {
	Prep string
	Text string
}

// RawTriple is one extracted relational tuple, before ontology mapping.
type RawTriple struct {
	Arg1, Rel, Arg2    string // surface forms (coref-resolved arguments)
	RelNorm            string // normalized relation phrase for predicate mapping
	Arg1Type, Arg2Type ontology.EntityType
	Extras             []PPArg
	Sentence           string
	DocID              string
	Source             string
	Date               time.Time
	Confidence         float64 // extractor heuristic confidence in (0,1)
	Negated            bool
	Passive            bool
}

// Extractor turns documents into raw triples.
type Extractor struct {
	rec *ner.Recognizer
	ont *ontology.Ontology
}

// New returns an extractor using the given recognizer. A nil ontology gets
// the default.
func New(rec *ner.Recognizer, ont *ontology.Ontology) *Extractor {
	if ont == nil {
		ont = ontology.Default()
	}
	return &Extractor{rec: rec, ont: ont}
}

// Extract processes a document sentence by sentence and returns the raw
// triples found.
func (e *Extractor) Extract(doc Document) []RawTriple {
	return e.ExtractSentences(doc, nlp.Process(doc.Text))
}

// ExtractSentences is Extract over the document's text already split and
// tagged by nlp.Process, for callers that also need the sentences. It does
// not modify them.
func (e *Extractor) ExtractSentences(doc Document, sentences []nlp.Sentence) []RawTriple {
	tracker := coref.NewTracker(e.ont)
	var out []RawTriple
	for _, s := range sentences {
		out = append(out, e.extractSentence(s, tracker, doc)...)
	}
	return out
}

// wStarTags may appear between the verb and the closing preposition of an
// extended ReVerb relation phrase ("announced [a partnership] with").
var wStarTags = map[string]bool{
	"DT": true, "JJ": true, "NN": true, "NNS": true, "PRP$": true,
	"RB": true, "CD": true, "$": true, "VBG": true,
}

func (e *Extractor) extractSentence(s nlp.Sentence, tracker *coref.Tracker, doc Document) []RawTriple {
	toks := s.Tokens
	mentions := e.rec.Recognize(s)
	chunks := nlp.ChunkSentence(toks)

	// Index NP chunks by start token for argument lookup.
	npAt := make(map[int]nlp.Chunk)
	var nps []nlp.Chunk
	for _, c := range chunks {
		if c.Kind == "NP" {
			npAt[c.Start] = c
			nps = append(nps, c)
		}
	}

	observedUpTo := 0
	observe := func(limit int) {
		// Push mentions ending at or before limit into the tracker so they
		// become antecedents for later references.
		for _, m := range mentions {
			if m.End <= limit && m.Start >= observedUpTo {
				tracker.Observe(m)
			}
		}
		if limit > observedUpTo {
			observedUpTo = limit
		}
	}

	var out []RawTriple
	for _, vp := range chunks {
		if vp.Kind != "VP" {
			continue
		}
		// arg1: the NP ending exactly at (or one filler token before) the VP.
		arg1np, ok := npEndingNear(nps, vp.Start)
		if !ok {
			continue
		}
		observe(arg1np.Start) // earlier mentions become antecedents

		relEnd := vp.End
		arg2Start := -1
		var closingPrep string

		// ReVerb's extended pattern V W* P NP has priority: "announced a
		// partnership with X" must not stop at the intermediate NP
		// "a partnership".
		j := vp.End
		steps := 0
		for j < len(toks) && wStarTags[toks[j].Tag] && steps < 5 {
			j++
			steps++
		}
		if j < len(toks) && isPrepTag(toks[j].Tag) && toks[j].Lower != "that" {
			if _, ok := npAt[j+1]; ok {
				closingPrep = toks[j].Lower
				relEnd = j + 1
				arg2Start = j + 1
			}
		}
		// Fallback: direct NP right after the verb phrase.
		if arg2Start < 0 {
			if _, ok := npAt[vp.End]; ok {
				arg2Start = vp.End
			}
		}
		if arg2Start < 0 {
			continue
		}
		arg2np := npAt[arg2Start]

		a1, t1, ent1, co1 := e.resolveArg(arg1np, toks, mentions, tracker)
		// The subject of this clause is now the most salient antecedent.
		if m, ok := ner.MentionWithin(mentions, arg1np.Start, arg1np.End); ok {
			tracker.ObserveSubject(m)
			observedUpTo = max(observedUpTo, m.End)
		}
		observe(arg2np.Start)
		a2, t2, ent2, co2 := e.resolveArg(arg2np, toks, mentions, tracker)
		if a1 == "" || a2 == "" || strings.EqualFold(a1, a2) {
			continue
		}

		relToks := toks[vp.Start:relEnd]
		negated := isNegated(relToks)
		passive := vp.Passive

		var tr RawTriple
		if passive && closingPrep == "by" {
			// "O was acquired by S" → (S, acquire, O)
			head := toks[vp.Head]
			tr = RawTriple{
				Arg1: a2, Rel: head.Text, Arg2: a1,
				RelNorm:  lemmaOf(head),
				Arg1Type: t2, Arg2Type: t1,
			}
			ent1, ent2 = ent2, ent1
		} else {
			tr = RawTriple{
				Arg1: a1, Rel: renderTokens(relToks), Arg2: a2,
				RelNorm:  normalizeRelation(relToks),
				Arg1Type: t1, Arg2Type: t2,
			}
		}
		tr.Negated = negated
		tr.Passive = passive
		tr.Sentence = s.Text
		tr.DocID = doc.ID
		tr.Source = doc.Source
		tr.Date = doc.Date
		tr.Extras = collectExtras(toks, arg2np.End)
		tr.Confidence = extractionConfidence(relEnd-vp.Start, ent1, ent2, co1 || co2, len(toks))
		if tr.RelNorm == "" {
			continue
		}
		out = append(out, tr)
	}
	observe(len(toks))
	return out
}

// resolveArg turns an NP chunk into an argument surface plus type. It
// reports whether the argument is a recognised entity and whether
// coreference resolution was applied.
func (e *Extractor) resolveArg(np nlp.Chunk, toks []nlp.Token, mentions []ner.Mention, tracker *coref.Tracker) (surface string, typ ontology.EntityType, isEntity, viaCoref bool) {
	// Bare pronoun.
	if np.End-np.Start == 1 && toks[np.Start].Tag == "PRP" {
		if m, ok := tracker.ResolvePronoun(toks[np.Start].Lower); ok {
			return m.Surface, m.Type, true, true
		}
		return "", ontology.TypeAny, false, false
	}
	// Recognised mention inside the NP.
	if m, ok := ner.MentionWithin(mentions, np.Start, np.End); ok {
		if m.Type == ontology.TypeAny {
			// Document-level alias: "Apex" after "Apex Robotics".
			if ante, ok := tracker.ResolvePartial(m.Surface); ok {
				return ante.Surface, ante.Type, true, true
			}
		}
		return m.Surface, m.Type, true, false
	}
	// Definite nominal: "the company".
	head := toks[np.Head]
	if np.Start < np.End && toks[np.Start].Lower == "the" && coref.IsNominalHead(head.Lemma) {
		if m, ok := tracker.ResolveNominal(head.Lemma); ok {
			return m.Surface, m.Type, true, true
		}
	}
	// Plain NP: strip the leading determiner.
	start := np.Start
	if toks[start].Tag == "DT" || toks[start].Tag == "PRP$" {
		start++
	}
	if start >= np.End {
		return "", ontology.TypeAny, false, false
	}
	return renderTokens(toks[start:np.End]), ontology.TypeAny, false, false
}

// npEndingNear finds the NP chunk whose end is at pos or separated from it
// by at most one adverb/comma.
func npEndingNear(nps []nlp.Chunk, pos int) (nlp.Chunk, bool) {
	for _, np := range nps {
		if np.End == pos {
			return np, true
		}
	}
	// gap-1 fallback: one filler token (adverb, comma) between NP and verb
	for _, np := range nps {
		if np.End == pos-1 {
			return np, true
		}
	}
	return nlp.Chunk{}, false
}

// collectExtras gathers trailing prepositional phrases after the object.
func collectExtras(toks []nlp.Token, from int) []PPArg {
	var out []PPArg
	j := from
	for j < len(toks) {
		if !isPrepTag(toks[j].Tag) {
			break
		}
		prep := toks[j].Lower
		k := j + 1
		for k < len(toks) && !isPrepTag(toks[k].Tag) && toks[k].Tag != "." && toks[k].Tag != "," {
			k++
		}
		if k > j+1 {
			out = append(out, PPArg{Prep: prep, Text: renderTokens(toks[j+1 : k])})
		}
		j = k
		if j < len(toks) && (toks[j].Tag == "." || toks[j].Tag == ",") {
			break
		}
	}
	return out
}

// normalizeRelation reduces a relation phrase to its canonical lemma form:
// auxiliaries (when another verb follows), determiners, possessives,
// numbers and adverbs are dropped; verbs and plural nouns are lemmatized.
// "has quickly acquired" → "acquire"; "announced a partnership with" →
// "announce partnership with"; "is the chief executive of" → "be chief
// executive of".
func normalizeRelation(relToks []nlp.Token) string {
	hasMainVerb := false
	for _, t := range relToks {
		if nlp.IsVerbTag(t.Tag) && t.Tag != "MD" && !isAuxLemma(t.Lemma) {
			hasMainVerb = true
			break
		}
	}
	var parts []string
	for _, t := range relToks {
		switch t.Tag {
		case "DT", "PRP$", "CD", "$", "RB", "MD", ",", ".":
			continue
		}
		if isAuxLemma(t.Lemma) && hasMainVerb {
			continue
		}
		l := t.Lemma
		if l == "" {
			l = t.Lower
		}
		parts = append(parts, l)
	}
	return strings.Join(parts, " ")
}

func isAuxLemma(lemma string) bool {
	switch lemma {
	case "be", "have", "do":
		return true
	}
	return false
}

func isNegated(relToks []nlp.Token) bool {
	for _, t := range relToks {
		switch t.Lower {
		case "not", "never", "n't", "no":
			return true
		}
	}
	return false
}

func isPrepTag(tag string) bool {
	return tag == "IN" || tag == "TO" || tag == "RP"
}

// extractionConfidence mirrors ReVerb's heuristic scoring: shorter relation
// phrases, recognised-entity arguments and direct (non-coref) mentions are
// more reliable.
func extractionConfidence(relLen int, ent1, ent2, viaCoref bool, sentLen int) float64 {
	c := 0.95
	if relLen > 3 {
		c -= 0.15
	}
	if !ent1 {
		c -= 0.20
	}
	if !ent2 {
		c -= 0.20
	}
	if viaCoref {
		c -= 0.10
	}
	if sentLen > 30 {
		c -= 0.10
	}
	if c < 0.05 {
		c = 0.05
	}
	return c
}

func renderTokens(toks []nlp.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

func lemmaOf(t nlp.Token) string {
	if t.Lemma != "" {
		return t.Lemma
	}
	return t.Lower
}
