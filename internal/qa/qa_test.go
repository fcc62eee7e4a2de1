package qa

import (
	"strings"
	"testing"
	"time"

	"nous/internal/analytics"
	"nous/internal/core"
	"nous/internal/disambig"
	"nous/internal/fgm"
	"nous/internal/linkpred"
	"nous/internal/pathsearch"
	"nous/internal/plan"
	"nous/internal/temporal"
	"nous/internal/trends"
)

func TestParseTrending(t *testing.T) {
	for _, s := range []string{
		"What is trending?",
		"what's trending",
		"Show me trending",
		"trending this week",
	} {
		q, err := Parse(s)
		if err != nil || q.Class != ClassTrending {
			t.Errorf("Parse(%q) = %+v, %v; want trending", s, q, err)
		}
	}
}

func TestParseEntity(t *testing.T) {
	cases := map[string]string{
		"Tell me about DJI":        "DJI",
		"tell me about DJI?":       "DJI",
		"Who is Frank Wang":        "Frank Wang",
		"What is the Phantom 3?":   "the Phantom 3",
		`Tell me about "Titan"`:    "Titan",
		"describe Windermere":      "Windermere",
		"summarize Apex Robotics?": "Apex Robotics",
	}
	for s, want := range cases {
		q, err := Parse(s)
		if err != nil || q.Class != ClassEntity || q.Subject != want {
			t.Errorf("Parse(%q) = %+v, %v; want entity %q", s, q, err, want)
		}
	}
}

func TestParseRelationship(t *testing.T) {
	q, err := Parse("How is Windermere related to DJI?")
	if err != nil || q.Class != ClassRelationship || q.Subject != "Windermere" || q.Object != "DJI" {
		t.Fatalf("Parse = %+v, %v", q, err)
	}
	q, err = Parse("Why is Windermere connected to Amazon via acquired?")
	if err != nil || q.Predicate != "acquired" {
		t.Fatalf("via-predicate lost: %+v, %v", q, err)
	}
	q, err = Parse("Explain the relationship between DJI and GoPro")
	if err != nil || q.Class != ClassRelationship || q.Subject != "DJI" || q.Object != "GoPro" {
		t.Fatalf("explain form: %+v, %v", q, err)
	}
}

func TestParsePattern(t *testing.T) {
	for _, s := range []string{
		"What patterns are emerging?",
		"show frequent patterns",
		"any new motifs in the stream?",
	} {
		q, err := Parse(s)
		if err != nil || q.Class != ClassPattern {
			t.Errorf("Parse(%q) = %+v, %v; want pattern", s, q, err)
		}
	}
}

// The did-form takes subjects and objects of any length: the verb is the
// first interior word that names a predicate, not the second word.
func TestParseDidMultiWordArguments(t *testing.T) {
	for _, c := range []struct {
		question, subject, predicate, object string
	}{
		{"Did DJI acquire Aeros?", "DJI", "acquired", "Aeros"},
		{"Did Parrot SA acquire Aeros Labs?", "Parrot SA", "acquired", "Aeros Labs"}, // PR 11's finding
		{"Did Parrot SA acquire Aeros?", "Parrot SA", "acquired", "Aeros"},
		{"Did DJI acquire Aeros Labs?", "DJI", "acquired", "Aeros Labs"},
		{"Has General Atomics Aeronautical bought Aeros Labs Inc?", "General Atomics Aeronautical", "acquired", "Aeros Labs Inc"},
		{"Does Yuneec International Co manufacture the Typhoon H Plus?", "Yuneec International Co", "manufactures", "Typhoon H Plus"},
		{"did  Parrot  SA   acquire  the  Aeros Labs ?", "Parrot  SA", "acquired", "Aeros Labs"},
		{"Did DJI acquire the?", "DJI", "acquired", "the"},
		{"Did Apex Supply acquire DJI?", "Apex Supply", "acquired", "DJI"}, // "Supply" names suppliesTo
		{"DID DJI ACQUIRE AEROS LABS?", "DJI", "acquired", "AEROS LABS"},   // no lower-case verb: the first predicate word
	} {
		q, err := Parse(c.question)
		if err != nil || q.Class != ClassFact || q.Subject != c.subject || q.Predicate != c.predicate || q.Object != c.object {
			t.Errorf("Parse(%q) = %+v, %v; want %s %s %s", c.question, q, err, c.subject, c.predicate, c.object)
		}
	}
	// No predicate word between a subject and an object: not a did-form fact.
	for _, question := range []string{"Did Parrot SA Aeros Labs?", "Did DJI acquire?", "Did acquire Aeros?"} {
		if q, err := Parse(question); err == nil && q.Class == ClassFact && q.Subject != "" && q.Object != "" {
			t.Errorf("Parse(%q) = %+v; want no subject-verb-object fact", question, q)
		}
	}
}

func TestParseFact(t *testing.T) {
	q, err := Parse("Did DJI acquire Aeros?")
	if err != nil || q.Class != ClassFact || q.Subject != "DJI" || q.Predicate != "acquired" || q.Object != "Aeros" {
		t.Fatalf("did-form: %+v, %v", q, err)
	}
	q, err = Parse("Who acquired Aeros?")
	if err != nil || q.Class != ClassFact || q.Object != "Aeros" || q.Subject != "" {
		t.Fatalf("who-form: %+v, %v", q, err)
	}
	q, err = Parse("What does DJI manufacture?")
	if err != nil || q.Class != ClassFact || q.Subject != "DJI" || q.Predicate != "manufactures" {
		t.Fatalf("what-does-form: %+v, %v", q, err)
	}
	q, err = Parse("Where is DJI headquartered?")
	if err != nil || q.Predicate != "headquarteredIn" {
		t.Fatalf("where-form: %+v, %v", q, err)
	}
}

func TestParseRejectsGibberish(t *testing.T) {
	for _, s := range []string{"", "   ", "flarp blonk quux"} {
		if q, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", s, q)
		}
	}
}

// buildExecutor wires a small KG with every executor dependency attached:
// the one executor the executor tests ask through.
func buildExecutor(t *testing.T) *plan.Executor {
	t.Helper()
	kg := core.NewKG(nil)
	day := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	facts := []core.Triple{
		{Subject: "DJI", Predicate: "headquarteredIn", Object: "Shenzhen", Confidence: 1, Curated: true, Provenance: core.Provenance{Source: "kb"}},
		{Subject: "DJI", Predicate: "manufactures", Object: "Phantom 3", Confidence: 1, Curated: true, Provenance: core.Provenance{Source: "kb"}},
		{Subject: "Windermere", Predicate: "deploys", Object: "Phantom 3", Confidence: 0.8, Provenance: core.Provenance{Source: "wsj", Time: day, Sentence: "Windermere now uses the Phantom 3."}},
		{Subject: "Windermere", Predicate: "deploys", Object: "Phantom 3", Confidence: 0.7, Provenance: core.Provenance{Source: "web", Time: day}},
		{Subject: "GoPro", Predicate: "acquired", Object: "Aeros Labs", Confidence: 0.9, Provenance: core.Provenance{Source: "wsj", Time: day}},
	}
	tab := trends.Track(kg, trends.DefaultConfig())
	miner := fgm.NewMiner(fgm.Config{MaxEdges: 2, MinSupport: 2})
	kg.Subscribe(func(ev core.Event) {
		if ev.Kind == core.FactAdded {
			miner.Add(fgm.Edge{
				Src: int64(ev.Fact.Src), Dst: int64(ev.Fact.Dst),
				SrcLabel: string(ev.Fact.SubjectType), DstLabel: string(ev.Fact.ObjectType),
				Label: ev.Fact.Predicate, Time: ev.Fact.Provenance.Time.Unix(),
			})
		}
	})
	for _, f := range facts {
		if _, err := kg.AddFact(f); err != nil {
			t.Fatal(err)
		}
	}
	ac := analytics.New(kg)
	return plan.NewExecutor(plan.Deps{
		KG:        kg,
		Trends:    tab,
		Miner:     miner,
		Searcher:  pathsearch.New(kg.Graph(), nil),
		Model:     linkpred.Train(nil, linkpred.DefaultConfig()),
		Linker:    disambig.NewLinker(kg, ac),
		Analytics: ac,
		TIndex:    kg.TemporalIndex(),
		Now:       func() time.Time { return day },
	})
}

// askWindow compiles a question at the executor's clock under the caller
// window w and runs it.
func askWindow(ex *plan.Executor, question string, w temporal.Window) (plan.Result, error) {
	p, err := CompileAt(question, ex.Now(), w)
	if err != nil {
		return plan.Result{}, err
	}
	return ex.Run(p)
}

// ask is askWindow under the unbounded window.
func ask(ex *plan.Executor, question string) (plan.Result, error) {
	return askWindow(ex, question, temporal.All())
}

func TestExecTrending(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "What is trending?")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trends) == 0 || !strings.Contains(a.Text, "Windermere") {
		t.Fatalf("trending answer: %s", a.Text)
	}
}

func TestExecEntity(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "Tell me about DJI")
	if err != nil {
		t.Fatal(err)
	}
	if a.Entity == nil || a.Entity.Name != "DJI" {
		t.Fatalf("entity answer: %+v", a)
	}
	if len(a.Entity.Facts) < 2 {
		t.Fatalf("facts = %+v", a.Entity.Facts)
	}
	if !strings.Contains(a.Text, "Shenzhen") || !strings.Contains(a.Text, "curated") {
		t.Fatalf("text = %s", a.Text)
	}
}

func TestExecEntityUnknown(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "Tell me about Zorblatt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Text, "don't know") {
		t.Fatalf("text = %s", a.Text)
	}
}

func TestExecRelationship(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "How is Windermere related to DJI?")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Paths) == 0 {
		t.Fatalf("no paths: %s", a.Text)
	}
	// Windermere -deploys-> Phantom 3 <-manufactures- DJI
	joined := strings.Join(a.Paths[0].Hops, " ")
	if !strings.Contains(joined, "Phantom 3") {
		t.Fatalf("path = %v", a.Paths[0].Hops)
	}
}

func TestExecPatterns(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "What patterns are emerging?")
	if err != nil {
		t.Fatal(err)
	}
	// Windermere deploys Phantom 3 twice -> 1-edge pattern support 2.
	if len(a.Patterns) == 0 {
		t.Fatalf("no patterns: %s", a.Text)
	}
}

func TestExecFactKnown(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "Did GoPro acquire Aeros Labs?")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fact == nil || !a.Fact.Known {
		t.Fatalf("fact answer: %+v %s", a.Fact, a.Text)
	}
	if !strings.Contains(a.Text, "Yes") {
		t.Fatalf("text = %s", a.Text)
	}
}

func TestExecFactUnknownGivesPlausibility(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "Did DJI acquire GoPro?")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fact.Known {
		t.Fatal("invented a fact")
	}
	if a.Fact.Plausible <= 0 || a.Fact.Plausible >= 1 {
		t.Fatalf("plausibility = %v", a.Fact.Plausible)
	}
}

func TestExecFactLists(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "What does DJI manufacture?")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Fact.Matches) != 1 || a.Fact.Matches[0].Name != "Phantom 3" {
		t.Fatalf("matches = %+v", a.Fact.Matches)
	}
	a, err = ask(ex, "Who acquired Aeros Labs?")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Fact.Matches) != 1 || a.Fact.Matches[0].Name != "GoPro" {
		t.Fatalf("matches = %+v", a.Fact.Matches)
	}
}

func TestClassesListsSix(t *testing.T) {
	// Fig 5's five classes plus the planner's temporal diff class.
	if got := Classes(); len(got) != 6 {
		t.Fatalf("Classes() = %v", got)
	}
}

// TestEntityImportanceFromAnalytics pins the entity summary's importance to
// the shared epoch-memoized PageRank: the score is the cached rank.
func TestEntityImportanceFromAnalytics(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "Tell me about DJI")
	if err != nil {
		t.Fatal(err)
	}
	if a.Entity == nil || a.Entity.Importance <= 0 {
		t.Fatalf("importance not served from analytics: %+v", a.Entity)
	}
	id, _ := ex.KG.Entity("DJI")
	if want := ex.Analytics.Importance(id); a.Entity.Importance != want {
		t.Fatalf("importance = %v, want cached rank %v", a.Entity.Importance, want)
	}
}
