package ner

import (
	"maps"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nous/internal/nlp"
	"nous/internal/ontology"
)

func rec() *Recognizer {
	r := NewRecognizer()
	r.AddGazetteer("DJI", ontology.TypeCompany)
	r.AddGazetteer("Parrot", ontology.TypeCompany)
	r.AddGazetteer("Shenzhen", ontology.TypeCity)
	r.AddGazetteer("Phantom 3", ontology.TypeProduct)
	r.AddGazetteer("FAA", ontology.TypeAgency)
	r.AddGazetteer("Federal Aviation Administration", ontology.TypeAgency)
	return r
}

func recognize(r *Recognizer, text string) []Mention {
	ss := nlp.Process(text)
	if len(ss) == 0 {
		return nil
	}
	return r.Recognize(ss[0])
}

func TestGazetteerMatch(t *testing.T) {
	ms := recognize(rec(), "DJI announced a new drone in Shenzhen.")
	if len(ms) != 2 {
		t.Fatalf("mentions = %+v, want 2", ms)
	}
	if ms[0].Surface != "DJI" || ms[0].Type != ontology.TypeCompany || !ms[0].InGazette {
		t.Errorf("first mention = %+v", ms[0])
	}
	if ms[1].Surface != "Shenzhen" || ms[1].Type != ontology.TypeCity {
		t.Errorf("second mention = %+v", ms[1])
	}
}

func TestLongestMatchWins(t *testing.T) {
	ms := recognize(rec(), "The Federal Aviation Administration approved the rules.")
	found := false
	for _, m := range ms {
		if m.Surface == "Federal Aviation Administration" {
			found = true
		}
		if m.Surface == "Federal" || m.Surface == "Administration" {
			t.Errorf("partial match leaked: %+v", m)
		}
	}
	if !found {
		t.Fatalf("multiword gazetteer match missed: %+v", ms)
	}
}

func TestProductWithNumber(t *testing.T) {
	ms := recognize(rec(), "DJI unveiled the Phantom 3 at a trade show.")
	found := false
	for _, m := range ms {
		if m.Surface == "Phantom 3" && m.Type == ontology.TypeProduct {
			found = true
		}
	}
	if !found {
		t.Fatalf("Phantom 3 not matched: %+v", ms)
	}
}

func TestOrgSuffixHeuristic(t *testing.T) {
	ms := recognize(rec(), "Quadtech Robotics announced a partnership.")
	if len(ms) == 0 {
		t.Fatal("no mentions")
	}
	if ms[0].Surface != "Quadtech Robotics" || ms[0].Type != ontology.TypeCompany {
		t.Errorf("mention = %+v, want Quadtech Robotics/Company", ms[0])
	}
	if ms[0].InGazette {
		t.Error("heuristic mention marked as gazetteer")
	}
}

func TestPersonTitleHeuristic(t *testing.T) {
	ms := recognize(rec(), "Mr. Navarro joined the firm.")
	found := false
	for _, m := range ms {
		if m.Surface == "Navarro" && m.Type == ontology.TypePerson {
			found = true
		}
	}
	if !found {
		t.Fatalf("title heuristic failed: %+v", ms)
	}
}

func TestFirstNameHeuristic(t *testing.T) {
	ms := recognize(rec(), "Elena Vasquez joined the board.")
	found := false
	for _, m := range ms {
		if m.Surface == "Elena Vasquez" && m.Type == ontology.TypePerson {
			found = true
		}
	}
	if !found {
		t.Fatalf("first-name heuristic failed: %+v", ms)
	}
}

func TestLocationPrepositionHeuristic(t *testing.T) {
	ms := recognize(rec(), "The firm opened an office in Montevideo.")
	found := false
	for _, m := range ms {
		if m.Surface == "Montevideo" && m.Type == ontology.TypeLocation {
			found = true
		}
	}
	if !found {
		t.Fatalf("location heuristic failed: %+v", ms)
	}
}

func TestAmbiguousGazetteerDegradesToAny(t *testing.T) {
	r := NewRecognizer()
	r.AddGazetteer("Apex", ontology.TypeCompany)
	r.AddGazetteer("Apex", ontology.TypeProduct)
	ms := recognize(r, "Apex announced results.")
	if len(ms) == 0 || ms[0].Type != ontology.TypeAny {
		t.Fatalf("ambiguous surface should be TypeAny: %+v", ms)
	}
}

func TestMentionWithin(t *testing.T) {
	ms := []Mention{{Surface: "A", Start: 1, End: 2}, {Surface: "B C", Start: 3, End: 5}}
	if m, ok := MentionWithin(ms, 3, 6); !ok || m.Surface != "B C" {
		t.Errorf("MentionWithin = %+v, %v", m, ok)
	}
	if _, ok := MentionWithin(ms, 4, 6); ok {
		t.Error("partial overlap should not match")
	}
}

func TestNoMentionsInPlainSentence(t *testing.T) {
	ms := recognize(rec(), "the deal is subject to regulatory approval.")
	if len(ms) != 0 {
		t.Fatalf("unexpected mentions: %+v", ms)
	}
}

// TestGazetteerOrderIndependentProperty: every permutation of a list of
// registrations builds the same gazetteer and the same maxLen, so a caller
// may feed AddGazetteer in any order (core.KG.ForEachAlias promises none).
// The surfaces repeat under clashing and agreeing types, and vary in case,
// padding and inner whitespace.
func TestGazetteerOrderIndependentProperty(t *testing.T) {
	surfaces := []string{"DJI", "dji", " DJI ", "Phantom 3", "phantom\t3", "Federal Aviation Administration",
		"a b c d e", "Parrot", "Shen zhen", "", "  "}
	types := []ontology.EntityType{ontology.TypeCompany, ontology.TypeProduct, ontology.TypeCity, ontology.TypeAny}
	type binding struct {
		surface string
		typ     ontology.EntityType
	}
	build := func(bs []binding) *Recognizer {
		r := NewRecognizer()
		for _, b := range bs {
			r.AddGazetteer(b.surface, b.typ)
		}
		return r
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bs := make([]binding, rng.Intn(24))
		for i := range bs {
			bs[i] = binding{surfaces[rng.Intn(len(surfaces))], types[rng.Intn(len(types))]}
		}
		want := build(bs)
		for k := 0; k < 8; k++ {
			rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
			if got := build(bs); got.maxLen != want.maxLen || !maps.Equal(got.gazetteer, want.gazetteer) {
				t.Logf("seed %d: order %v built %v (maxLen %d), first order %v (maxLen %d)",
					seed, bs, got.gazetteer, got.maxLen, want.gazetteer, want.maxLen)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWordsMatchesFields: words counts what strings.Fields splits.
func TestWordsMatchesFields(t *testing.T) {
	for _, s := range []string{"", " ", "a", " a ", "a b", "a\tb\nc", "x y", " lead", "tail "} {
		if got, want := words(s), len(strings.Fields(s)); got != want {
			t.Errorf("words(%q) = %d, want %d", s, got, want)
		}
	}
	if err := quick.Check(func(s string) bool { return words(s) == len(strings.Fields(s)) }, nil); err != nil {
		t.Fatal(err)
	}
}
