package nous

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestFullRangeWindowReferenceIdentical is the PR's acceptance reference: a
// full-range windowed query must return byte-identical answers to the
// unwindowed query across the whole pipeline — entity summaries,
// relationship paths, fact lookups, trending and graph exports.
func TestFullRangeWindowReferenceIdentical(t *testing.T) {
	p, _ := buildSystem(t, 120)

	questions := []string{
		"What is trending?",
		"Tell me about DJI",
		"How is Windermere related to DJI?",
		"What does DJI manufacture?",
		"Did Amazon acquire Parrot?",
	}
	for _, q := range questions {
		plain, err := p.Ask(q)
		if err != nil {
			t.Fatalf("Ask(%q): %v", q, err)
		}
		windowed, err := p.AskWindow(q, Window{})
		if err != nil {
			t.Fatalf("AskWindow(%q): %v", q, err)
		}
		if plain.Text != windowed.Text {
			t.Fatalf("full-range text for %q diverges:\n%q\nvs\n%q", q, plain.Text, windowed.Text)
		}
		if !reflect.DeepEqual(plain, windowed) {
			t.Fatalf("full-range structured answer for %q diverges", q)
		}
	}

	// About/Explain full-range equivalence.
	plain, err := p.About("DJI")
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := p.AboutWindow("DJI", Window{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Text != windowed.Text {
		t.Fatal("AboutWindow(all) diverges from About")
	}
	pe, err := p.Explain("Windermere", "DJI", "", 3)
	if err != nil {
		t.Fatal(err)
	}
	we, err := p.ExplainWindow("Windermere", "DJI", "", 3, Window{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pe.Paths, we.Paths) {
		t.Fatal("ExplainWindow(all) diverges from Explain")
	}

	// Export full-range equivalence, byte for byte.
	var a, b bytes.Buffer
	if err := p.KG().ExportJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.KG().ExportJSONWindow(&b, Window{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("full-range export diverges from unwindowed export")
	}
}

// TestWideBoundedWindowSameAnswers drives the *windowed* code path (bounded
// window covering every timestamp) and checks the structured results match
// the unwindowed ones: same facts, same paths — only the rendered window
// line may differ.
func TestWideBoundedWindowSameAnswers(t *testing.T) {
	p, _ := buildSystem(t, 120)
	wide := Window{Since: math.MinInt64 + 1, Until: math.MaxInt64 - 1}

	plain, err := p.About("DJI")
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := p.AboutWindow("DJI", wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Entity.Facts, windowed.Entity.Facts) {
		t.Fatal("wide bounded window changed the entity fact set")
	}
	pe, _ := p.Explain("Windermere", "DJI", "", 3)
	we, _ := p.ExplainWindow("Windermere", "DJI", "", 3, wide)
	if !reflect.DeepEqual(pe.Paths, we.Paths) {
		t.Fatal("wide bounded window changed the path set")
	}
}

// TestTemporalQuestionsEndToEnd exercises the temporal question forms the
// parser learns against a generated corpus with real article dates.
func TestTemporalQuestionsEndToEnd(t *testing.T) {
	p, w := buildSystem(t, 150)
	var lo, hi time.Time
	for _, a := range GenerateArticles(w, DefaultArticleConfig(150)) {
		if lo.IsZero() || a.Date.Before(lo) {
			lo = a.Date
		}
		if a.Date.After(hi) {
			hi = a.Date
		}
	}
	year := lo.Year()

	a, err := p.Ask("Tell me about DJI in " + time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC).Format("2006"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Entity == nil {
		t.Fatalf("windowed entity answer empty: %s", a.Text)
	}
	if !strings.Contains(a.Text, "window:") {
		t.Fatalf("windowed answer lacks window annotation:\n%s", a.Text)
	}
	// A window before the corpus keeps only curated facts.
	b, err := p.AskWindow("Tell me about DJI", Window{Since: math.MinInt64, Until: lo.AddDate(-10, 0, 0).Unix()})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range b.Entity.Facts {
		if !f.Curated {
			t.Fatalf("pre-corpus window leaked extracted fact %+v", f)
		}
	}

	// The temporal index tracks exactly the KG's facts and spans the stream.
	st := p.TemporalStats()
	if st.Edges != p.KG().NumFacts() {
		t.Fatalf("index edges %d != facts %d", st.Edges, p.KG().NumFacts())
	}
	if st.MaxTimestamp < lo.Unix() {
		t.Fatalf("index span %d..%d does not reach the corpus dates", st.MinTimestamp, st.MaxTimestamp)
	}
}

// TestAskWindowParseErrors pins the sentinel error contract the server's
// status mapping depends on.
func TestAskWindowParseErrors(t *testing.T) {
	p, _ := buildSystem(t, 30)
	for _, q := range []string{"", "gibberish flarp", "Tell me about DJI between 2016 and 2015"} {
		_, err := p.Ask(q)
		if err == nil {
			t.Fatalf("Ask(%q) succeeded", q)
		}
		if !errors.Is(err, ErrParse) {
			t.Fatalf("Ask(%q) error %v does not match ErrParse", q, err)
		}
	}
}

// TestOpenRebuildsTemporalIndex verifies the index is rebuilt from a
// recovered graph: a durable pipeline reopened from disk answers windowed
// queries identically to the pipeline that wrote the data.
func TestOpenRebuildsTemporalIndex(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	wcfg := DefaultWorldConfig()
	wcfg.Companies, wcfg.People, wcfg.Products, wcfg.Events = 10, 10, 10, 60
	w := GenerateWorld(wcfg)

	p1, err := Open(dir, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SeedKG(p1.KG()); err != nil {
		t.Fatal(err)
	}
	p1.IngestAll(GenerateArticles(w, DefaultArticleConfig(40)))
	before := p1.TemporalStats()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(dir, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	after := p2.TemporalStats()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("recovered temporal index diverges: %+v vs %+v", before, after)
	}
	if after.Edges == 0 || after.Edges != p2.KG().NumFacts() {
		t.Fatalf("recovered index edges %d, facts %d", after.Edges, p2.KG().NumFacts())
	}
}
