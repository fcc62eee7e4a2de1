package nous

import (
	"strings"
	"testing"
	"time"

	"nous/internal/stream"
)

func buildSystem(t testing.TB, nArticles int) (*Pipeline, *World) {
	wcfg := DefaultWorldConfig()
	wcfg.Companies = 15
	wcfg.People = 15
	wcfg.Products = 15
	wcfg.Events = 100
	w := GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(kg, DefaultConfig())
	p.IngestAll(GenerateArticles(w, DefaultArticleConfig(nArticles)))
	return p, w
}

func TestPipelineEndToEnd(t *testing.T) {
	p, _ := buildSystem(t, 100)
	st := p.Stats()
	if st.Accepted == 0 {
		t.Fatalf("no facts accepted: %+v", st)
	}
	kgStats := p.KG().Stats()
	if kgStats.ExtractedFacts == 0 || kgStats.CuratedFacts == 0 {
		t.Fatalf("fused KG missing a layer: %+v", kgStats)
	}
}

func TestAllFiveQueryClasses(t *testing.T) {
	p, _ := buildSystem(t, 120)
	p.BuildTopics()

	questions := []string{
		"What is trending?",
		"Tell me about DJI",
		"How is DJI related to Shenzhen?",
		"What patterns are emerging?",
		"What does DJI manufacture?",
	}
	for _, q := range questions {
		a, err := p.Ask(q)
		if err != nil {
			t.Fatalf("Ask(%q): %v", q, err)
		}
		if strings.TrimSpace(a.Text) == "" {
			t.Fatalf("Ask(%q) returned empty text", q)
		}
	}
	// Fig 5's five classes plus the planner's diff class.
	if len(QueryClasses()) != 6 {
		t.Fatal("query class listing broken")
	}
}

func TestEntityQueryFig6(t *testing.T) {
	p, _ := buildSystem(t, 100)
	a, err := p.About("DJI")
	if err != nil {
		t.Fatal(err)
	}
	if a.Entity == nil || a.Entity.Name != "DJI" || len(a.Entity.Facts) == 0 {
		t.Fatalf("About(DJI) = %+v", a)
	}
	if !strings.Contains(a.Text, "Shenzhen") {
		t.Fatalf("DJI summary lacks curated anchor: %s", a.Text)
	}
}

func TestExplainWithTopics(t *testing.T) {
	p, _ := buildSystem(t, 100)
	p.BuildTopics()
	a, err := p.Explain("DJI", "Shenzhen", "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Paths) == 0 {
		t.Fatalf("no explanation paths: %s", a.Text)
	}
}

func TestPatternsSpanCuratedAndExtracted(t *testing.T) {
	p, _ := buildSystem(t, 150)
	ps := p.Patterns(10)
	if len(ps) == 0 {
		t.Fatal("no closed patterns over fused graph")
	}
}

func TestScoreIsProbability(t *testing.T) {
	p, _ := buildSystem(t, 60)
	s := p.Score("DJI", "acquired", "Parrot")
	if s <= 0 || s >= 1 {
		t.Fatalf("score = %v", s)
	}
}

func TestWindowedPipelineKeepsCurated(t *testing.T) {
	wcfg := DefaultWorldConfig()
	wcfg.Companies = 10
	wcfg.People = 10
	wcfg.Products = 10
	wcfg.Events = 80
	w := GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Stream.Window = 60 * 24 * time.Hour
	p := NewPipeline(kg, cfg)
	st := p.IngestAll(GenerateArticles(w, DefaultArticleConfig(120)))
	if st.FactsEvicted == 0 {
		t.Fatalf("windowed run evicted nothing: %+v", st)
	}
	if got := p.KG().Stats().CuratedFacts; got != len(w.Curated) {
		t.Fatalf("curated facts = %d, want %d", got, len(w.Curated))
	}
}

// TestWindowAloneEvicts: a Config that sets only the stream window keeps it,
// so no extracted fact older than the window survives the newest article.
func TestWindowAloneEvicts(t *testing.T) {
	wcfg := DefaultWorldConfig()
	wcfg.Companies = 10
	wcfg.People = 10
	wcfg.Products = 10
	wcfg.Events = 80
	w := GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	window := 60 * 24 * time.Hour
	p := NewPipeline(kg, Config{Stream: stream.Config{Window: window}})
	articles := GenerateArticles(w, DefaultArticleConfig(120))
	if st := p.IngestAll(articles); st.FactsEvicted == 0 {
		t.Fatalf("windowed run evicted nothing: %+v", st)
	}
	var newest time.Time
	for _, a := range articles {
		if a.Date.After(newest) {
			newest = a.Date
		}
	}
	for _, f := range kg.AllFacts() {
		if !f.Curated && f.Provenance.Time.Before(newest.Add(-window)) {
			t.Fatalf("fact older than the window survived: %+v", f)
		}
	}
}

func TestPatternTransitions(t *testing.T) {
	p, _ := buildSystem(t, 100)
	entered, _ := p.PatternTransitions()
	if len(entered) == 0 {
		t.Fatal("no patterns entered the frequent set after ingestion")
	}
	// second call without changes: no transitions
	entered, left := p.PatternTransitions()
	if len(entered) != 0 || len(left) != 0 {
		t.Fatalf("spurious transitions: %d entered, %d left", len(entered), len(left))
	}
}

// TestDiffAndBackfillEndToEnd drives the two planner-enabled temporal
// workloads through the public facade: Diff (temporal join) and
// TrendingWindow (windowed trend backfill), both against a generated corpus.
func TestDiffAndBackfillEndToEnd(t *testing.T) {
	p, w := buildSystem(t, 200)
	var lo, hi time.Time
	for _, a := range GenerateArticles(w, DefaultArticleConfig(200)) {
		if lo.IsZero() || a.Date.Before(lo) {
			lo = a.Date
		}
		if a.Date.After(hi) {
			hi = a.Date
		}
	}
	span := hi.Sub(lo)
	early := Window{Since: lo.Unix(), Until: lo.Add(span / 3).Unix()}
	late := Window{Since: lo.Add(2 * span / 3).Unix(), Until: hi.Unix() + 1}

	// Whole-stream diff between the first and last third of the corpus.
	a, err := p.Diff("", early, late)
	if err != nil {
		t.Fatal(err)
	}
	if a.Diff == nil {
		t.Fatalf("no diff payload: %s", a.Text)
	}
	if len(a.Diff.Added)+len(a.Diff.Removed) == 0 {
		t.Fatalf("a two-thirds-apart stream diff found no changes:\n%s", a.Text)
	}
	for _, f := range append(append([]Fact{}, a.Diff.Added...), a.Diff.Removed...) {
		if f.Curated {
			t.Fatalf("curated fact in stream diff: %+v", f)
		}
	}

	// Windowed trend backfill over the full corpus span: must find bursts
	// and must NOT be the end-bucket view of live trending.
	full := Window{Since: lo.Unix(), Until: hi.Unix() + 1}
	tr, err := p.TrendingWindow(full, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Trends) == 0 {
		t.Fatalf("backfill over the whole corpus found nothing:\n%s", tr.Text)
	}
	if !strings.Contains(tr.Text, "windowed backfill") {
		t.Fatalf("TrendingWindow did not use backfill:\n%s", tr.Text)
	}
	// The unbounded window stays live trending.
	live, err := p.TrendingWindow(Window{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(live.Text, "Trending now:") {
		t.Fatalf("unbounded TrendingWindow text:\n%s", live.Text)
	}

	// Ask-path diff question + plan stats accounting.
	if _, err := p.Ask("What changed between 2011 and 2014?"); err != nil {
		t.Fatal(err)
	}
	st := p.PlanStats()
	if st.Plans == 0 || st.ByClass["diff"] == 0 {
		t.Fatalf("plan stats = %+v", st)
	}

	// PlanFor compiles without executing.
	pl, err := p.PlanFor("Tell me about DJI in 2014", Window{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Class != "entity" || !strings.Contains(pl.Explain(nil), "WindowFilter") {
		t.Fatalf("PlanFor explain:\n%s", pl.Explain(nil))
	}
}
