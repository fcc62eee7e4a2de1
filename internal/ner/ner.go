// Package ner implements named-entity recognition over tagged sentences:
// gazetteer lookup (longest match) backed by orthographic and contextual
// heuristics for out-of-gazetteer names. It reproduces the role of the
// Stanford-style NER stage in NOUS's triple-extraction pipeline (§3.2).
package ner

import (
	"sort"
	"strings"
	"unicode"

	"nous/internal/nlp"
	"nous/internal/ontology"
)

// Mention is a recognised entity mention: a token span with a surface form
// and a best-guess type (TypeAny when unknown).
type Mention struct {
	Surface    string
	Type       ontology.EntityType
	Start, End int // token span [Start, End)
	InGazette  bool
}

// Recognizer finds entity mentions. Populate the gazetteer from the curated
// KB, then Recognize tagged sentences.
type Recognizer struct {
	gazetteer map[string]ontology.EntityType
	maxLen    int // longest gazetteer surface, in tokens
}

// NewRecognizer returns an empty recognizer.
func NewRecognizer() *Recognizer {
	return &Recognizer{gazetteer: make(map[string]ontology.EntityType), maxLen: 1}
}

// AddGazetteer registers a surface form with its type. A surface keeps its
// type while every registration of it agrees; once two disagree, in
// whatever order they come, it is ambiguous and recorded as TypeAny for the
// disambiguator to decide. The gazetteer, like maxLen, is therefore the
// same for every order of the same registrations, which lets callers feed
// it in no particular order (core.KG.ForEachAlias).
func (r *Recognizer) AddGazetteer(surface string, typ ontology.EntityType) {
	key := strings.ToLower(strings.TrimSpace(surface))
	if key == "" {
		return
	}
	if prev, ok := r.gazetteer[key]; ok && prev != typ {
		r.gazetteer[key] = ontology.TypeAny
	} else {
		r.gazetteer[key] = typ
	}
	r.maxLen = max(r.maxLen, words(key))
}

// words counts the whitespace-separated words of s, as len(strings.Fields(s))
// does, without building the slice.
func words(s string) int {
	n, inWord := 0, false
	for _, c := range s {
		space := unicode.IsSpace(c)
		if !space && !inWord {
			n++
		}
		inWord = !space
	}
	return n
}

// orgSuffixes mark a trailing token as corporate.
var orgSuffixes = map[string]ontology.EntityType{
	"inc.": ontology.TypeCompany, "inc": ontology.TypeCompany,
	"corp.": ontology.TypeCompany, "corp": ontology.TypeCompany,
	"co.": ontology.TypeCompany, "ltd.": ontology.TypeCompany,
	"llc": ontology.TypeCompany, "sa": ontology.TypeCompany,
	"systems": ontology.TypeCompany, "robotics": ontology.TypeCompany,
	"technologies": ontology.TypeCompany, "technology": ontology.TypeCompany,
	"industries": ontology.TypeCompany, "labs": ontology.TypeCompany,
	"dynamics": ontology.TypeCompany, "aviation": ontology.TypeCompany,
	"aerial": ontology.TypeCompany, "analytics": ontology.TypeCompany,
	"ventures": ontology.TypeCompany, "group": ontology.TypeCompany,
	"aerospace": ontology.TypeCompany, "media": ontology.TypeCompany,
	"pharma": ontology.TypeCompany, "financial": ontology.TypeCompany,
	"university":     ontology.TypeUniversity,
	"administration": ontology.TypeAgency, "agency": ontology.TypeAgency,
	"commission": ontology.TypeAgency,
}

// personTitles preceding a name mark it as a person.
var personTitles = map[string]bool{
	"mr.": true, "mrs.": true, "ms.": true, "dr.": true, "prof.": true,
	"ceo": true, "president": true, "chairman": true, "director": true,
	"founder": true, "executive": true,
}

// firstNameHints is a small first-name gazetteer for person typing.
var firstNameHints = map[string]bool{
	"james": true, "mary": true, "wei": true, "sofia": true, "raj": true,
	"elena": true, "frank": true, "grace": true, "omar": true, "lucia": true,
	"chen": true, "anna": true, "david": true, "mei": true, "paul": true,
	"sara": true, "igor": true, "nina": true, "hugo": true, "ava": true,
	"ken": true, "lily": true, "marco": true, "ruth": true, "tariq": true,
	"jane": true, "john": true, "michael": true, "sarah": true, "robert": true,
}

// Recognize returns the entity mentions of a tagged sentence, sorted by
// start position. Gazetteer matches (longest first) take priority; remaining
// proper-noun runs become heuristically-typed mentions.
func (r *Recognizer) Recognize(s nlp.Sentence) []Mention {
	toks := s.Tokens
	n := len(toks)
	covered := make([]bool, n)
	var out []Mention

	// 1. Gazetteer longest-match scan.
	for i := 0; i < n; i++ {
		if covered[i] {
			continue
		}
		maxSpan := r.maxLen
		if i+maxSpan > n {
			maxSpan = n - i
		}
		for l := maxSpan; l >= 1; l-- {
			if anyCovered(covered, i, i+l) {
				continue
			}
			surface := joinTokens(toks, i, i+l)
			key := strings.ToLower(surface)
			typ, ok := r.gazetteer[key]
			if !ok {
				continue
			}
			// Reject 1-token lowercase function words even if gazetted.
			if l == 1 && !isCapitalized(toks[i].Text) && !nlp.IsNounTag(toks[i].Tag) {
				continue
			}
			out = append(out, Mention{Surface: surface, Type: typ, Start: i, End: i + l, InGazette: true})
			markCovered(covered, i, i+l)
			break
		}
	}

	// 2. Proper-noun runs (NNP+ with optional trailing CD: "Falcon 2").
	for i := 0; i < n; i++ {
		if covered[i] || toks[i].Tag != "NNP" {
			continue
		}
		j := i
		for j < n && !covered[j] && toks[j].Tag == "NNP" {
			j++
		}
		end := j
		if end < n && !covered[end] && toks[end].Tag == "CD" && !strings.Contains(toks[end].Text, "$") {
			end++
		}
		start := i
		titled := false
		// "Mr. Navarro": the honorific marks the type but stays out of the
		// mention surface.
		if personTitles[strings.ToLower(toks[start].Text)] && end > start+1 {
			start++
			titled = true
		}
		surface := joinTokens(toks, start, end)
		typ := r.guessType(toks, start, end)
		if titled {
			typ = ontology.TypePerson
		}
		out = append(out, Mention{Surface: surface, Type: typ, Start: start, End: end})
		markCovered(covered, i, end)
		i = end - 1
	}

	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// guessType applies orthographic and contextual heuristics to an
// out-of-gazetteer proper-noun span.
func (r *Recognizer) guessType(toks []nlp.Token, start, end int) ontology.EntityType {
	last := strings.ToLower(toks[end-1].Text)
	if t, ok := orgSuffixes[last]; ok {
		return t
	}
	if start > 0 && personTitles[strings.ToLower(toks[start-1].Text)] {
		return ontology.TypePerson
	}
	if end-start == 2 && firstNameHints[strings.ToLower(toks[start].Text)] {
		return ontology.TypePerson
	}
	// location cue: preceded by a locative preposition
	if start > 0 && toks[start-1].Tag == "IN" {
		switch strings.ToLower(toks[start-1].Text) {
		case "in", "at", "near":
			return ontology.TypeLocation
		}
	}
	return ontology.TypeAny
}

// MentionWithin returns the longest mention fully inside [start, end).
func MentionWithin(mentions []Mention, start, end int) (Mention, bool) {
	best := Mention{Start: -1}
	found := false
	for _, m := range mentions {
		if m.Start >= start && m.End <= end {
			if !found || m.End-m.Start > best.End-best.Start {
				best = m
				found = true
			}
		}
	}
	return best, found
}

func anyCovered(covered []bool, a, b int) bool {
	for i := a; i < b; i++ {
		if covered[i] {
			return true
		}
	}
	return false
}

func markCovered(covered []bool, a, b int) {
	for i := a; i < b; i++ {
		covered[i] = true
	}
}

func joinTokens(toks []nlp.Token, a, b int) string {
	parts := make([]string, 0, b-a)
	for i := a; i < b; i++ {
		parts = append(parts, toks[i].Text)
	}
	return strings.Join(parts, " ")
}

func isCapitalized(w string) bool {
	return len(w) > 0 && w[0] >= 'A' && w[0] <= 'Z'
}
