package corpus

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/ontology"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Companies = 10
	cfg.People = 10
	cfg.Products = 10
	cfg.Events = 60
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if len(a.Entities) != len(b.Entities) || len(a.Curated) != len(b.Curated) || len(a.Events) != len(b.Events) {
		t.Fatalf("same seed produced different worlds: %d/%d/%d vs %d/%d/%d",
			len(a.Entities), len(a.Curated), len(a.Events),
			len(b.Entities), len(b.Curated), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	c := smallConfig()
	c.Seed = 99
	d := Generate(c)
	same := len(d.Events) == len(a.Events)
	if same {
		identical := true
		for i := range d.Events {
			if d.Events[i] != a.Events[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical event streams")
		}
	}
}

func TestWorldContainsPaperCast(t *testing.T) {
	w := Generate(smallConfig())
	for _, name := range []string{"DJI", "Parrot", "Windermere", "FAA", "Phantom 3"} {
		if _, ok := w.Entity(name); !ok {
			t.Errorf("fixed cast entity %q missing", name)
		}
	}
	if dji, _ := w.Entity("DJI"); dji.Type != ontology.TypeCompany {
		t.Errorf("DJI type = %s", dji.Type)
	}
}

func TestCuratedFactsLoadIntoKG(t *testing.T) {
	w := Generate(smallConfig())
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	if kg.NumFacts() != len(w.Curated) {
		t.Fatalf("KG facts = %d, curated = %d", kg.NumFacts(), len(w.Curated))
	}
	if !kg.HasFact("DJI", "headquarteredIn", "Shenzhen") {
		t.Error("anchor fact missing from KG")
	}
	st := kg.Stats()
	if st.ExtractedFacts != 0 {
		t.Errorf("curated KG has %d extracted facts", st.ExtractedFacts)
	}
}

func TestEventsSortedAndTyped(t *testing.T) {
	w := Generate(smallConfig())
	if len(w.Events) == 0 {
		t.Fatal("no events generated")
	}
	rumors := 0
	for i, e := range w.Events {
		if i > 0 && e.Date.Before(w.Events[i-1].Date) {
			t.Fatal("events not sorted by date")
		}
		if _, ok := w.Ontology.Predicate(e.Predicate); !ok {
			t.Errorf("event uses unknown predicate %q", e.Predicate)
		}
		if e.Rumor {
			rumors++
		}
	}
	if rumors == 0 {
		t.Error("no rumors planted despite RumorRate > 0")
	}
}

func TestAmbiguousAliasesExist(t *testing.T) {
	w := Generate(smallConfig())
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	cands := kg.Candidates("Apex")
	if len(cands) < 2 {
		t.Fatalf("alias Apex should be ambiguous, got %v", cands)
	}
}

func TestGenerateArticlesGroundTruth(t *testing.T) {
	w := Generate(smallConfig())
	arts := GenerateArticles(w, DefaultArticleConfig(50))
	if len(arts) != 50 {
		t.Fatalf("got %d articles", len(arts))
	}
	pronouns := 0
	for _, a := range arts {
		if a.Text == "" || a.ID == "" {
			t.Fatalf("malformed article %+v", a)
		}
		if len(a.Truth) == 0 {
			t.Errorf("article %s has no ground truth", a.ID)
		}
		for _, ev := range a.Truth {
			if ev.Subject == "" || ev.Object == "" {
				t.Errorf("article %s has malformed truth %+v", a.ID, ev)
			}
		}
		if len(a.Truth) > 1 {
			pronouns++
		}
	}
	if pronouns == 0 {
		t.Error("no multi-fact articles generated despite PronounRate > 0")
	}
}

func TestArticlesDeterministic(t *testing.T) {
	w := Generate(smallConfig())
	a := GenerateArticles(w, DefaultArticleConfig(20))
	b := GenerateArticles(w, DefaultArticleConfig(20))
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatalf("article %d differs across runs", i)
		}
	}
}

func TestTrueFactDistinguishesRumors(t *testing.T) {
	w := Generate(smallConfig())
	var rumor, truth *Event
	for i := range w.Events {
		if w.Events[i].Rumor && rumor == nil {
			rumor = &w.Events[i]
		}
		if !w.Events[i].Rumor && truth == nil {
			truth = &w.Events[i]
		}
	}
	if rumor == nil || truth == nil {
		t.Skip("world lacks a rumor or a truth")
	}
	if w.TrueFact(rumor.Subject, rumor.Predicate, rumor.Object) {
		// A rumor triple may coincide with a real event or a curated fact;
		// only fail when nothing true matches.
		matched := false
		for _, e := range w.Events {
			if !e.Rumor && e.Subject == rumor.Subject && e.Predicate == rumor.Predicate && e.Object == rumor.Object {
				matched = true
			}
		}
		for _, c := range w.Curated {
			if c.Subject == rumor.Subject && c.Predicate == rumor.Predicate && c.Object == rumor.Object {
				matched = true
			}
		}
		if !matched {
			t.Error("TrueFact accepted a pure rumor")
		}
	}
	if !w.TrueFact(truth.Subject, truth.Predicate, truth.Object) {
		t.Error("TrueFact rejected a true event")
	}
}

func TestTriplesTSVRoundtrip(t *testing.T) {
	got, err := ReadTriplesTSV(strings.NewReader(
		"DJI\tacquired\tParrot\tCompany\tCompany\n" +
			" Ada Lee \tworksFor\tDJI\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Triple{
		{Subject: "DJI", Predicate: "acquired", Object: "Parrot",
			SubjectType: ontology.TypeCompany, ObjectType: ontology.TypeCompany,
			Confidence: 1, Curated: true, Provenance: core.Provenance{Source: "tsv"}},
		{Subject: "Ada Lee", Predicate: "worksFor", Object: "DJI",
			Confidence: 1, Curated: true, Provenance: core.Provenance{Source: "tsv"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n %+v\nwant\n %+v", got, want)
	}
}

func TestTriplesTSVRejectsMalformed(t *testing.T) {
	_, err := ReadTriplesTSV(strings.NewReader("one\ttwo\n"))
	if err == nil {
		t.Fatal("malformed TSV accepted")
	}
	got, err := ReadTriplesTSV(strings.NewReader("# comment\n\nA\tacquired\tB\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("comments/blank lines mishandled: %v %v", got, err)
	}
}

func TestArticlesJSONRoundtrip(t *testing.T) {
	got, err := ReadArticlesJSON(strings.NewReader(`[
		{"id": "a1", "source": "wsj", "date": "2015-03-01", "title": "Deal", "text": "DJI acquired Parrot."},
		{"id": "a2", "text": "Undated."}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	want := []Article{
		{ID: "a1", Source: "wsj", Date: time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC), Title: "Deal", Text: "DJI acquired Parrot."},
		{ID: "a2", Text: "Undated."},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n %+v\nwant\n %+v", got, want)
	}
	if _, err := ReadArticlesJSON(strings.NewReader(`[{"id": "a3", "date": "March 1"}]`)); err == nil {
		t.Fatal("bad date accepted")
	}
}

func TestCitationWorld(t *testing.T) {
	w := GenerateCitationWorld(3, 20, 30)
	if len(w.Events) == 0 {
		t.Fatal("no citation events")
	}
	preds := map[string]bool{}
	for _, e := range w.Events {
		preds[e.Predicate] = true
	}
	for _, p := range []string{"authorOf", "cites", "publishedAt"} {
		if !preds[p] {
			t.Errorf("citation world missing predicate %s", p)
		}
	}
	if _, err := w.LoadKG(); err != nil {
		t.Fatalf("citation KG load: %v", err)
	}
}

func TestInsiderWorld(t *testing.T) {
	w := GenerateInsiderWorld(3, 15, 12, 300)
	if len(w.Events) < 300 {
		t.Fatalf("insider events = %d", len(w.Events))
	}
	// exfiltration motif must be present late in the stream
	motif := 0
	for _, e := range w.Events {
		if e.Predicate == "copiedTo" {
			motif++
		}
	}
	if motif == 0 {
		t.Error("no copiedTo events planted")
	}
	if _, err := w.LoadKG(); err != nil {
		t.Fatalf("insider KG load: %v", err)
	}
}

func BenchmarkGenerateArticles(b *testing.B) {
	w := Generate(smallConfig())
	cfg := DefaultArticleConfig(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenerateArticles(w, cfg)
	}
}
