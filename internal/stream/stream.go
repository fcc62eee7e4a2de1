// Package stream glues NOUS's pipeline stages (Fig 1) into a streaming
// document processor: text → triple extraction (NER + coref + OpenIE) →
// predicate mapping (distant supervision) → entity disambiguation →
// confidence estimation (BPR link prediction blended with extractor
// confidence) → dynamic-KG update, with a sliding window evicting stale
// extracted facts. Extraction parallelizes across worker goroutines;
// knowledge integration stays in document order so results are
// deterministic.
package stream

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nous/internal/analytics"
	"nous/internal/core"
	"nous/internal/corpus"
	"nous/internal/disambig"
	"nous/internal/extract"
	"nous/internal/linkpred"
	"nous/internal/ner"
	"nous/internal/nlp"
	"nous/internal/ontology"
	"nous/internal/predmap"
	"nous/internal/trust"
)

// Config tunes the pipeline. The zero Config evicts nothing, extracts on
// GOMAXPROCS workers and never learns.
type Config struct {
	// Window evicts extracted facts older than this horizon relative to
	// the newest document; 0 disables eviction.
	Window time.Duration
	// Workers parallelizes extraction. Default GOMAXPROCS.
	Workers int
	// LearnEvery runs a distant-supervision expansion round every N
	// documents. 0 disables learning.
	LearnEvery int
}

// DefaultConfig is the ingest setup the paper's figures are printed with
// (the root package's example_test.go; README's "Paper claims and
// figures").
func DefaultConfig() Config {
	return Config{LearnEvery: 200}
}

// The confidence gate. A fact's confidence is blendExtractor times its
// extractor confidence plus the rest times its link-prediction score, and
// a fact below confidenceThreshold stays out of the KG. Each pipeline reads
// the threshold through Pipeline.threshold, which
// BenchmarkAblation_ConfidenceGate sweeps. On the default world with 600
// events and 150 articles, τ 0.15 and 0.35 admit the same 142 facts at
// precision 0.754, and τ 0.55 admits 137 at 0.759.
const (
	confidenceThreshold = 0.35
	blendExtractor      = 0.5
)

// Stats counts pipeline outcomes.
type Stats struct {
	Documents     int
	Sentences     int
	RawTriples    int
	Mapped        int
	Accepted      int
	Rejected      int // mapped but below the confidence gate
	RulesLearned  int
	FactsEvicted  int
	NewEntities   int
	CorefResolved int
}

// Pipeline is the end-to-end processor. Construct with NewWith, then feed
// documents with Process or Run.
type Pipeline struct {
	cfg       Config
	threshold float64
	kg        *core.KG
	rec       *ner.Recognizer
	ext       *extract.Extractor
	mapper    *predmap.Mapper
	model     *linkpred.Model
	linker    *disambig.Linker
	tracker   *trust.Tracker

	mu         sync.Mutex
	stats      Stats
	learnBuf   []extract.RawTriple
	latestSeen time.Time
}

// NewWith builds a pipeline over a KG already loaded with the curated KB.
// The NER gazetteer and source trust are initialized from the KG's current
// contents; the link-prediction model is trained on its curated facts alone
// and never updated afterwards, so it is the same after any restart. The
// given analytics cache serves the disambiguation popularity prior. facts
// is the KG's current fact list (kg.AllFacts()), passed in so an assembler
// that already decoded it does not pay for a second pass over the graph.
func NewWith(kg *core.KG, cfg Config, ac *analytics.Cache, facts []core.Fact) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	rec := ner.NewRecognizer()
	kg.ForEachAlias(func(alias, canonical string, typ ontology.EntityType) {
		rec.AddGazetteer(alias, typ)
	})
	mapper := predmap.NewMapper(kg.Ontology(), predmap.DefaultConfig())
	mapper.AddDefaultSeeds()
	var curated []core.Triple
	for _, f := range facts {
		if f.Curated {
			curated = append(curated, f.Triple)
		}
	}
	// The gate model is a function of the curated substrate: extracted
	// facts, the gate's own output, never train it.
	model := linkpred.Train(curated, linkpred.DefaultConfig())

	// Source-level trust (§3.4): curated sources anchor the fixpoint;
	// stream sources earn trust through corroboration.
	tracker := trust.NewTracker(kg.Ontology(), trust.DefaultConfig())
	for _, f := range facts {
		if f.Curated && f.Provenance.Source != "" {
			tracker.Pin(f.Provenance.Source, 0.95)
		}
		tracker.Observe(trust.Assertion{
			Source: f.Provenance.Source, Subject: f.Subject,
			Predicate: f.Predicate, Object: f.Object,
		})
	}
	return &Pipeline{
		cfg:       cfg,
		threshold: confidenceThreshold,
		kg:        kg,
		rec:       rec,
		ext:       extract.New(rec, kg.Ontology()),
		mapper:    mapper,
		model:     model,
		linker:    disambig.NewLinker(kg, ac),
		tracker:   tracker,
	}
}

// KG returns the pipeline's knowledge graph.
func (p *Pipeline) KG() *core.KG { return p.kg }

// Model returns the link-prediction model (for QA plausibility scoring).
func (p *Pipeline) Model() *linkpred.Model { return p.model }

// Mapper returns the predicate mapper (to inspect learned rules).
func (p *Pipeline) Mapper() *predmap.Mapper { return p.mapper }

// Linker returns the entity disambiguator.
func (p *Pipeline) Linker() *disambig.Linker { return p.linker }

// SourceTrust returns every source's trust as of the last fixpoint run
// (every LearnEvery documents), sorted by descending trust. It reads under
// the stream lock, so it is safe during ingestion.
func (p *Pipeline) SourceTrust() []trust.SourceTrust {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tracker.Sources()
}

// Stats returns a snapshot of pipeline counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Process runs one article through the pipeline.
func (p *Pipeline) Process(a corpus.Article) {
	p.integrate(a, p.extractArticle(a))
}

// Run processes articles through a bounded worker pool: the embarrassingly
// parallel extraction stage (NLP chunking, NER, triple extraction) fans out
// across Workers goroutines while the order-sensitive integration stage
// (disambiguation, confidence gating, KG writes) consumes completed
// extractions in document order on the calling goroutine. Integration of
// article i starts as soon as its extraction lands — it does not wait for
// the whole batch — so extraction and integration overlap.
func (p *Pipeline) Run(articles []corpus.Article) Stats {
	n := len(articles)
	if n == 0 {
		return p.Stats()
	}
	workers := p.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for _, a := range articles {
			p.Process(a)
		}
		return p.Stats()
	}

	// Receiving every per-article result below is what joins the workers:
	// once results[n-1] arrives, all extractions have completed.
	jobs := make(chan int)
	results := make([]chan extraction, n)
	for i := range results {
		results[i] = make(chan extraction, 1)
	}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				results[i] <- p.extractArticle(articles[i])
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
	}()

	// In-order integration, pipelined against extraction.
	for i, a := range articles {
		p.integrate(a, <-results[i])
	}
	return p.Stats()
}

// extraction is everything the serial stage needs from a document's text,
// so that all of the document's NLP runs in the parallel stage.
type extraction struct {
	raws      []extract.RawTriple
	sentences int
	context   []string // sorted content-word lemmas, the disambiguation context
}

// extractArticle is the stateless, parallel-safe stage.
func (p *Pipeline) extractArticle(a corpus.Article) extraction {
	// nlp.Process keeps every sentence nlp.SplitSentences finds (each is a
	// non-blank string, so it has a token), so len(sents) is the count.
	sents := nlp.Process(a.Text)
	doc := extract.Document{ID: a.ID, Source: a.Source, Date: a.Date, Text: a.Text}
	return extraction{
		raws:      p.ext.ExtractSentences(doc, sents),
		sentences: len(sents),
		context:   contentWords(sents),
	}
}

// integrate maps, disambiguates, scores and stores one document's raw
// triples; it must run in document order.
func (p *Pipeline) integrate(a corpus.Article, ex extraction) {
	p.mu.Lock()
	defer p.mu.Unlock()

	p.stats.Documents++
	p.stats.Sentences += ex.sentences
	p.stats.RawTriples += len(ex.raws)
	p.learnBuf = append(p.learnBuf, ex.raws...)

	// Edge writes for facts accepted from this document are deferred into
	// one batch (the graph write-locked once) after the per-triple
	// decisions. To keep per-fact semantics, the rest happens eagerly at
	// accept time: entities register immediately (so later mentions in the
	// same document resolve against them) and `pending` stands in for the
	// not-yet-written edges in the duplicate check.
	var batch []core.Triple
	pending := make(map[[3]string]bool)
	entitiesBefore := p.kg.NumEntities()
	for _, rt := range ex.raws {
		mapped, ok := p.mapper.Map(rt)
		if !ok {
			continue
		}
		p.stats.Mapped++

		mapped.Subject = p.resolveEntity(mapped.Subject, ex.context)
		mapped.Object = p.resolveEntity(mapped.Object, ex.context)
		if mapped.Subject == "" || mapped.Object == "" || mapped.Subject == mapped.Object {
			continue
		}
		p.tracker.Observe(trust.Assertion{
			Source: mapped.Provenance.Source, Subject: mapped.Subject,
			Predicate: mapped.Predicate, Object: mapped.Object,
		})

		key := [3]string{mapped.Subject, mapped.Predicate, mapped.Object}
		if pending[key] || p.kg.HasFact(mapped.Subject, mapped.Predicate, mapped.Object) {
			continue
		}
		// Confidence: blend the extractor/mapping confidence with the
		// link-prediction score learned from the curated KB.
		lp := p.model.Score(mapped.Subject, mapped.Predicate, mapped.Object)
		score := blendExtractor*mapped.Confidence + (1-blendExtractor)*lp
		if score < p.threshold {
			p.stats.Rejected++
			continue
		}
		mapped.Confidence = score
		norm, err := p.kg.NormalizeTriple(mapped)
		if err != nil {
			p.stats.Rejected++
			continue
		}
		p.kg.AddEntity(norm.Subject, norm.SubjectType)
		p.kg.AddEntity(norm.Object, norm.ObjectType)
		batch = append(batch, norm)
		pending[key] = true
	}
	_, errs := p.kg.AddFacts(batch)
	for _, err := range errs {
		if err != nil {
			p.stats.Rejected++
			continue
		}
		p.stats.Accepted++
	}
	// Entities on this path are created only by the AddEntity calls above,
	// so one per-document bracket equals the old per-fact accounting.
	p.stats.NewEntities += p.kg.NumEntities() - entitiesBefore

	// Sliding window.
	if !a.Date.IsZero() && a.Date.After(p.latestSeen) {
		p.latestSeen = a.Date
	}
	if p.cfg.Window > 0 && !p.latestSeen.IsZero() {
		p.stats.FactsEvicted += p.kg.EvictBefore(p.latestSeen.Add(-p.cfg.Window))
	}

	// Periodic semi-supervised expansion and trust fixpoint. The
	// disambiguation prior no longer needs an explicit refresh: it is
	// epoch-versioned and recomputes lazily after any KG write.
	if p.cfg.LearnEvery > 0 && p.stats.Documents%p.cfg.LearnEvery == 0 {
		p.stats.RulesLearned += p.mapper.Learn(p.learnBuf, p.kg)
		p.learnBuf = p.learnBuf[:0]
		p.tracker.Recompute()
	}
}

// resolveEntity maps a surface form onto a canonical KG entity, or keeps
// the surface as a new entity name when the KB has no candidate (the paper:
// "or else create a new node").
func (p *Pipeline) resolveEntity(surface string, context []string) string {
	surface = strings.TrimSpace(surface)
	if surface == "" {
		return ""
	}
	cands := p.kg.Candidates(surface)
	switch len(cands) {
	case 0:
		return surface // new entity
	case 1:
		return cands[0]
	}
	r := p.linker.LinkOne(disambig.Mention{Surface: surface, Context: context})
	if r.Entity != "" {
		return r.Entity
	}
	return cands[0]
}

func contentWords(sents []nlp.Sentence) []string {
	var out []string
	for _, s := range sents {
		out = append(out, nlp.ContentWords(s)...)
	}
	sort.Strings(out)
	return out
}
