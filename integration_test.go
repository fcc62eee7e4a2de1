package nous

import (
	"strings"
	"testing"
	"time"

	"nous/internal/corpus"
)

// TestInsiderExfiltrationDetection is the §3.1 insider-threat scenario as a
// test: the exfiltration motif (user accesses a resource which is copied to
// the removable-media sink) must become frequent in the detection window.
func TestInsiderExfiltrationDetection(t *testing.T) {
	world := corpus.GenerateInsiderWorld(11, 20, 12, 1500)
	kg, err := world.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Miner.MinSupport = 4
	p := NewPipeline(kg, cfg)

	verb := map[string]string{
		"accessed": "accessed", "loggedInto": "logged into",
		"emailed": "emailed", "copiedTo": "copied to",
	}
	var articles []Article
	for i, e := range world.Events {
		v := verb[e.Predicate]
		if v == "" {
			continue
		}
		articles = append(articles, Article{
			ID: string(rune('a'+i%26)) + "-log", Source: "auditd", Date: e.Date,
			Text: e.Subject + " " + v + " " + e.Object + ".",
		})
	}
	p.IngestAll(articles)

	found := false
	for _, pat := range p.Patterns(0) {
		if strings.Contains(pat.Code, "accessed") && strings.Contains(pat.Code, "copiedTo") {
			found = true
		}
	}
	if !found {
		t.Fatal("exfiltration motif not surfaced by the miner")
	}
	// Fig 7 also demands a validating instance: a resource some user
	// accessed that was then copied to a sink, as facts in the KG.
	facts := p.KG().AllFacts()
	accessed := map[string]bool{}
	for _, f := range facts {
		if f.Predicate == "accessed" {
			accessed[f.Object] = true
		}
	}
	instance := false
	for _, f := range facts {
		instance = instance || f.Predicate == "copiedTo" && accessed[f.Subject]
	}
	if !instance {
		t.Fatal("no accessed-then-copied resource backs the detected motif")
	}
}

// TestCitationDomain runs the §3.1 citation-analytics domain end to end.
func TestCitationDomain(t *testing.T) {
	world := corpus.GenerateCitationWorld(7, 30, 50)
	kg, err := world.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(kg, DefaultConfig())
	var articles []Article
	for i, e := range world.Events {
		v := map[string]string{"authorOf": "authored", "cites": "cites", "publishedAt": "appeared at"}[e.Predicate]
		if v == "" {
			continue
		}
		articles = append(articles, Article{
			ID: "bib", Source: "dblp", Date: e.Date,
			Text: e.Subject + " " + v + " " + e.Object + ".",
		})
		if i > 150 {
			break
		}
	}
	st := p.IngestAll(articles)
	if st.Accepted == 0 {
		t.Fatalf("citation stream produced nothing: %+v", st)
	}
	// The KG should now answer citation fact queries.
	hasCites := false
	for _, f := range p.KG().AllFacts() {
		if f.Predicate == "cites" && !f.Curated {
			hasCites = true
		}
	}
	if !hasCites {
		t.Fatal("no extracted citation facts")
	}
}

// TestMalformedArticlesDontCrash injects broken inputs into the pipeline.
func TestMalformedArticlesDontCrash(t *testing.T) {
	w := GenerateWorld(DefaultWorldConfig())
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(kg, DefaultConfig())
	bad := []Article{
		{ID: "empty", Text: ""},
		{ID: "whitespace", Text: "   \n\t "},
		{ID: "punct", Text: "!!! ??? ..."},
		{ID: "nodate", Text: "DJI acquired Parrot.", Source: "wsj"}, // zero Date
		{ID: "unicode", Text: "DJI acquired Pärrot for ¥500 million. 株式会社 was involved."},
		{ID: "huge-token", Text: strings.Repeat("a", 5000) + " acquired DJI."},
	}
	st := p.IngestAll(bad)
	if st.Documents != len(bad) {
		t.Fatalf("documents = %d", st.Documents)
	}
}

// TestOutOfOrderTimestamps: eviction is by event time, not arrival order.
func TestOutOfOrderTimestamps(t *testing.T) {
	w := GenerateWorld(DefaultWorldConfig())
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Stream.Window = 30 * 24 * time.Hour
	p := NewPipeline(kg, cfg)

	newer := Article{ID: "n", Source: "wsj", Date: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC),
		Text: "DJI acquired Parrot."}
	older := Article{ID: "o", Source: "wsj", Date: time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC),
		Text: "GoPro acquired Yuneec."}
	p.Ingest(newer)
	p.Ingest(older) // arrives later but is far outside the window
	if p.KG().HasFact("GoPro", "acquired", "Yuneec") {
		t.Fatal("stale out-of-order fact survived the window")
	}
	if !p.KG().HasFact("DJI", "acquired", "Parrot") {
		t.Fatal("in-window fact lost")
	}
}

// TestSourceTrustExposed: the §3.4 trust tracking is visible through the
// public API and ranks the pinned curated source highest.
func TestSourceTrustExposed(t *testing.T) {
	p, _ := buildSystem(t, 80)
	ss := p.SourceTrust()
	if len(ss) == 0 {
		t.Fatal("no sources tracked")
	}
	if ss[0].Source != "curated-kb" {
		t.Fatalf("pinned curated source not on top: %+v", ss)
	}
	for _, s := range ss {
		if s.Trust < 0 || s.Trust > 1 {
			t.Fatalf("trust out of range: %+v", s)
		}
	}
}

// TestDeterministicFacade: two identical pipeline runs agree exactly.
func TestDeterministicFacade(t *testing.T) {
	run := func() (StreamStats, int) {
		w := GenerateWorld(DefaultWorldConfig())
		kg, err := w.LoadKG()
		if err != nil {
			t.Fatal(err)
		}
		p := NewPipeline(kg, DefaultConfig())
		st := p.IngestAll(GenerateArticles(w, DefaultArticleConfig(60)))
		return st, len(p.Patterns(0))
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 || p1 != p2 {
		t.Fatalf("runs diverged: %+v/%d vs %+v/%d", s1, p1, s2, p2)
	}
}
