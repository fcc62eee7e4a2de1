package stream

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nous/internal/analytics"
	"nous/internal/core"
	"nous/internal/corpus"
	"nous/internal/trust"
)

// newPipeline assembles a pipeline over kg with a cache of its own, seeded
// with every fact kg holds.
func newPipeline(kg *core.KG, cfg Config) *Pipeline {
	p := NewWith(kg, cfg, analytics.New(kg))
	kg.ScanFacts(p.Seed)
	return p
}

func smallWorld() *corpus.World {
	cfg := corpus.DefaultConfig()
	cfg.Companies = 12
	cfg.People = 12
	cfg.Products = 12
	cfg.Events = 80
	return corpus.Generate(cfg)
}

func TestPipelineEndToEnd(t *testing.T) {
	w := smallWorld()
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	curatedFacts := kg.NumFacts()

	p := newPipeline(kg, DefaultConfig())
	articles := corpus.GenerateArticles(w, corpus.DefaultArticleConfig(120))
	st := p.Run(articles)

	if st.Documents != 120 {
		t.Fatalf("documents = %d", st.Documents)
	}
	if st.RawTriples == 0 || st.Mapped == 0 || st.Accepted == 0 {
		t.Fatalf("pipeline produced nothing: %+v", st)
	}
	if kg.NumFacts() <= curatedFacts {
		t.Fatal("no extracted facts entered the KG")
	}
	// Extracted facts must carry provenance and confidences in (0,1].
	extracted := 0
	for _, f := range kg.AllFacts() {
		if f.Curated {
			continue
		}
		extracted++
		if f.Confidence <= 0 || f.Confidence > 1 {
			t.Fatalf("bad confidence %v on %+v", f.Confidence, f)
		}
		if f.Provenance.Source == "" || f.Provenance.DocID == "" {
			t.Fatalf("missing provenance on %+v", f)
		}
	}
	if extracted == 0 {
		t.Fatal("no extracted facts")
	}
}

// Recall floor: the pipeline must recover a healthy fraction of the
// ground-truth events its articles report. This is the integration-level
// extraction quality gate.
func TestPipelineRecallFloor(t *testing.T) {
	w := smallWorld()
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := newPipeline(kg, DefaultConfig())
	acfg := corpus.DefaultArticleConfig(150)
	acfg.AliasRate = 0 // isolate extraction quality from disambiguation
	articles := corpus.GenerateArticles(w, acfg)
	p.Run(articles)

	total, hit := 0, 0
	for _, a := range articles {
		for _, ev := range a.Truth {
			total++
			if kg.HasFact(ev.Subject, ev.Predicate, ev.Object) {
				hit++
			}
		}
	}
	if total == 0 {
		t.Fatal("no ground truth")
	}
	recall := float64(hit) / float64(total)
	if recall < 0.5 {
		t.Fatalf("recall = %.2f (%d/%d), want >= 0.5", recall, hit, total)
	}
}

// Precision gate: facts admitted to the KG should mostly be true in the
// world (curated facts are true by construction; extracted ones must not
// be hallucinations).
func TestPipelinePrecisionFloor(t *testing.T) {
	w := smallWorld()
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := newPipeline(kg, DefaultConfig())
	acfg := corpus.DefaultArticleConfig(150)
	acfg.AliasRate = 0
	articles := corpus.GenerateArticles(w, acfg)
	p.Run(articles)

	good, bad := 0, 0
	for _, f := range kg.AllFacts() {
		if f.Curated {
			continue
		}
		if w.TrueFact(f.Subject, f.Predicate, f.Object) {
			good++
		} else {
			bad++
		}
	}
	if good+bad == 0 {
		t.Fatal("no extracted facts to grade")
	}
	precision := float64(good) / float64(good+bad)
	// Rumors (10% of events) are reported by articles and legitimately
	// extracted; the precision floor accounts for them.
	if precision < 0.6 {
		t.Fatalf("precision = %.2f (%d good, %d bad), want >= 0.6", precision, good, bad)
	}
}

func TestSlidingWindowEvicts(t *testing.T) {
	w := smallWorld()
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Window = 30 * 24 * time.Hour
	p := newPipeline(kg, cfg)
	articles := corpus.GenerateArticles(w, corpus.DefaultArticleConfig(150))
	st := p.Run(articles)
	if st.FactsEvicted == 0 {
		t.Fatalf("no facts evicted across a 6-year stream with a 30-day window: %+v", st)
	}
	// All curated facts must survive.
	curated := 0
	for _, f := range kg.AllFacts() {
		if f.Curated {
			curated++
		}
	}
	if curated != len(w.Curated) {
		t.Fatalf("curated facts lost: %d vs %d", curated, len(w.Curated))
	}
}

func TestDistantSupervisionLearnsRules(t *testing.T) {
	w := smallWorld()
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LearnEvery = 50
	p := newPipeline(kg, cfg)
	acfg := corpus.DefaultArticleConfig(200)
	acfg.KBReportRate = 0.4 // many curated re-reports → learnable phrases
	articles := corpus.GenerateArticles(w, acfg)
	st := p.Run(articles)
	if st.RulesLearned == 0 {
		t.Skip("no rules learned on this seed (phrase coverage already in seeds)")
	}
	if len(p.Mapper().LearnedRules()) == 0 {
		t.Fatal("stats claim learned rules but mapper has none")
	}
}

// TestWorkerCountInvariance: the fan-out/in-order-integrate pipeline must
// produce byte-identical outcomes no matter how many extraction workers
// run, source trust included, bit for bit. Under -race this is also the
// concurrency gate for Pipeline.Run.
func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) (Stats, int, []trust.SourceTrust) {
		w := smallWorld()
		kg, err := w.LoadKG()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.LearnEvery = 20 // four trust fixpoints over the 80 articles
		p := newPipeline(kg, cfg)
		st := p.Run(corpus.GenerateArticles(w, corpus.DefaultArticleConfig(80)))
		return st, kg.NumFacts(), p.SourceTrust()
	}
	serialStats, serialFacts, serialTrust := run(1)
	for _, workers := range []int{2, 4, 8} {
		st, facts, tr := run(workers)
		if st != serialStats {
			t.Fatalf("workers=%d stats diverged from serial:\n%+v\n%+v", workers, st, serialStats)
		}
		if facts != serialFacts {
			t.Fatalf("workers=%d facts=%d, serial=%d", workers, facts, serialFacts)
		}
		if len(tr) != len(serialTrust) {
			t.Fatalf("workers=%d: %d sources, serial %d", workers, len(tr), len(serialTrust))
		}
		for i, s := range tr {
			want := serialTrust[i]
			if s.Source != want.Source || math.Float64bits(s.Trust) != math.Float64bits(want.Trust) {
				t.Fatalf("workers=%d: source %d = %s %v, serial %s %v", workers, i, s.Source, s.Trust, want.Source, want.Trust)
			}
		}
	}
}

func TestDeterministicRun(t *testing.T) {
	run := func() Stats {
		w := smallWorld()
		kg, err := w.LoadKG()
		if err != nil {
			t.Fatal(err)
		}
		p := newPipeline(kg, DefaultConfig())
		return p.Run(corpus.GenerateArticles(w, corpus.DefaultArticleConfig(60)))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestProcessSingleDocument(t *testing.T) {
	w := smallWorld()
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := newPipeline(kg, DefaultConfig())
	p.Process(corpus.Article{
		ID: "doc-1", Source: "test",
		Date: time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC),
		Text: "DJI announced that it has acquired Parrot for $300 million.",
	})
	st := p.Stats()
	if st.Documents != 1 || st.RawTriples == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !kg.HasFact("DJI", "acquired", "Parrot") {
		t.Fatal("fact not integrated")
	}
}

func BenchmarkPipelineRun(b *testing.B) {
	w := smallWorld()
	articles := corpus.GenerateArticles(w, corpus.DefaultArticleConfig(100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		kg, err := w.LoadKG()
		if err != nil {
			b.Fatal(err)
		}
		p := newPipeline(kg, DefaultConfig())
		b.StartTimer()
		p.Run(articles)
	}
}

// BenchmarkAblation_ConfidenceGate sweeps the admission threshold τ and
// reports the precision of admitted facts against world ground truth: the
// trade the gate's constant (confidenceThreshold, τ = 0.35) makes between
// admitted facts and their precision.
func BenchmarkAblation_ConfidenceGate(b *testing.B) {
	wcfg := corpus.DefaultConfig()
	wcfg.Events = 600
	w := corpus.Generate(wcfg)
	articles := corpus.GenerateArticles(w, corpus.DefaultArticleConfig(150))
	for _, tau := range []float64{0.15, 0.35, 0.55} {
		b.Run(fmt.Sprintf("tau=%.2f", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				kg, err := w.LoadKG()
				if err != nil {
					b.Fatal(err)
				}
				p := newPipeline(kg, DefaultConfig())
				p.threshold = tau
				b.StartTimer()
				p.Run(articles)
				b.StopTimer()
				good, bad := 0, 0
				for _, f := range kg.AllFacts() {
					if f.Curated {
						continue
					}
					if w.TrueFact(f.Subject, f.Predicate, f.Object) {
						good++
					} else {
						bad++
					}
				}
				if good+bad > 0 {
					b.ReportMetric(float64(good)/float64(good+bad), "precision")
					b.ReportMetric(float64(good+bad), "facts")
				}
				b.StartTimer()
			}
		})
	}
}
