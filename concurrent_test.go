package nous

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/fgm"
	"nous/internal/plan"
)

// readDuringIngest ingests a small world's articles on a second goroutine
// and calls read on this one until ingestion returns. LearnEvery is lowered
// so the trust fixpoint runs several times inside the stream.
func readDuringIngest(t *testing.T, read func(p *Pipeline)) {
	wcfg := DefaultWorldConfig()
	wcfg.Companies, wcfg.People, wcfg.Products, wcfg.Events = 12, 12, 12, 120
	w := GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Stream.LearnEvery = 10
	p := NewPipeline(kg, cfg)
	arts := GenerateArticles(w, DefaultArticleConfig(80))

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.IngestAll(arts)
	}()
	for {
		select {
		case <-done:
			return
		default:
			read(p)
		}
	}
}

// TestLinkPredictionReadsDuringIngest: a did-question about a fact the
// graph lacks and Pipeline.Score both read the link-prediction model while
// IngestAll scores extracted facts with it. Run it under -race.
func TestLinkPredictionReadsDuringIngest(t *testing.T) {
	readDuringIngest(t, func(p *Pipeline) {
		if _, err := p.Ask("Did DJI acquire Parrot?"); err != nil {
			t.Fatal(err)
		}
		if s := p.Score("DJI", "acquired", "Parrot"); s <= 0 || s >= 1 {
			t.Fatalf("score = %v", s)
		}
	})
}

// TestSourceTrustDuringIngest: SourceTrust reads the trust tracker that
// every document observes into and the fixpoint rewrites while IngestAll
// runs. Run it under -race.
func TestSourceTrustDuringIngest(t *testing.T) {
	readDuringIngest(t, func(p *Pipeline) {
		for _, s := range p.SourceTrust() {
			if s.Trust < 0 || s.Trust > 1 {
				t.Fatalf("trust out of range: %+v", s)
			}
		}
	})
}

// minerFeedFixture is an empty KG over a small world with a synchronous
// reference miner subscribed to it ahead of the pipeline, so the reference
// counts every KG change inside the write that makes it while the
// pipeline's miner counts it from its feed. The stream window and a small
// count window make the stream evict facts and slide the miner's window.
func minerFeedFixture(t *testing.T) (*Pipeline, *fgm.Miner, *World, []Article) {
	wcfg := DefaultWorldConfig()
	wcfg.Companies, wcfg.People, wcfg.Products, wcfg.Events = 12, 12, 12, 120
	w := GenerateWorld(wcfg)
	cfg := DefaultConfig()
	cfg.Stream.Window = 180 * 24 * time.Hour
	cfg.Miner.WindowSize = 150
	kg := NewKG(w.Ontology)
	ref := fgm.NewMiner(cfg.Miner)
	kg.Subscribe(func(ev core.Event) {
		switch ev.Kind {
		case core.FactAdded:
			ref.Add(minerEdge(&ev.Fact))
		case core.FactEvicted:
			ref.Remove(int64(ev.Fact.ID))
		}
	})
	return NewPipeline(kg, cfg), ref, w, GenerateArticles(w, DefaultArticleConfig(80))
}

// matchesReferenceMiner fails t unless the pipeline's closed patterns and
// pattern transitions are those of the reference miner.
func matchesReferenceMiner(t *testing.T, when string, p *Pipeline, ref *fgm.Miner) {
	t.Helper()
	if got, want := p.Patterns(0), ref.ClosedPatterns(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d closed patterns, the reference has %d:\n got %v\nwant %v", when, len(got), len(want), got, want)
	}
	gotIn, gotOut := p.PatternTransitions()
	wantIn, wantOut := ref.Transitions()
	if !reflect.DeepEqual(gotIn, wantIn) || !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("%s: transitions +%v -%v, the reference's +%v -%v", when, gotIn, gotOut, wantIn, wantOut)
	}
}

// directTriples are world events written straight to the KG, past the
// stream, as one batch.
func directTriples(w *World, n int) []Triple {
	var ts []Triple
	for _, ev := range w.Events[:n] {
		ts = append(ts, Triple{Subject: ev.Subject, Predicate: ev.Predicate, Object: ev.Object,
			Confidence: 0.9, Provenance: Provenance{Source: "direct", Time: ev.Date}})
	}
	return ts
}

// TestPatternsDuringIngest: the miner counts KG changes on its feed's
// goroutine, behind the writer, yet every pattern read answers as a miner
// that counted each change inside its write would. The first part reads
// after the curated seed, after each Ingest, after each IngestAll chunk
// and after a direct AddFacts batch; the second reads beside IngestAll and
// checks the result once it returns. Run it under -race.
func TestPatternsDuringIngest(t *testing.T) {
	t.Run("after each write", func(t *testing.T) {
		p, ref, w, arts := minerFeedFixture(t)
		if err := w.SeedKG(p.KG()); err != nil {
			t.Fatal(err)
		}
		matchesReferenceMiner(t, "after the curated seed", p, ref)
		for i, a := range arts[:20] {
			p.Ingest(a)
			matchesReferenceMiner(t, fmt.Sprintf("after Ingest of article %d", i), p, ref)
		}
		for i := 20; i < len(arts); i += 15 {
			p.IngestAll(arts[i:min(i+15, len(arts))])
			matchesReferenceMiner(t, fmt.Sprintf("after the IngestAll chunk at article %d", i), p, ref)
		}
		if p.Stats().FactsEvicted == 0 {
			t.Fatal("the stream evicted nothing")
		}
		if _, errs := p.KG().AddFacts(directTriples(w, 60)); errs[0] != nil {
			t.Fatal(errs[0])
		}
		matchesReferenceMiner(t, "after a direct AddFacts batch", p, ref)
		if len(ref.ClosedPatterns(0)) == 0 {
			t.Fatal("the reference mines nothing")
		}
	})
	t.Run("beside IngestAll", func(t *testing.T) {
		p, ref, w, arts := minerFeedFixture(t)
		if err := w.SeedKG(p.KG()); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.IngestAll(arts)
		}()
		for reads := 0; ; reads++ {
			select {
			case <-done:
				if reads == 0 {
					t.Fatal("no read ran beside IngestAll")
				}
				matchesReferenceMiner(t, "after IngestAll", p, ref)
				return
			default:
				p.Patterns(5)
				if _, err := p.Ask("What patterns are emerging?"); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestPatternsQueryDuringFullFeed: a direct AddFacts batch larger than the
// miner's feed posts under the KG's write lock until the feed is full and
// then waits for the drain, which takes no KG lock; patterns queries that
// hold the KG's read lock meanwhile wait only for the posts made before
// them. Both sides must finish. Close right after a direct write leaves
// nothing in the feed.
func TestPatternsQueryDuringFullFeed(t *testing.T) {
	p, ref, w, _ := minerFeedFixture(t)
	if err := w.SeedKG(p.KG()); err != nil {
		t.Fatal(err)
	}
	// Each round re-adds the events under a new source: a batch of 5,000
	// facts, more than the feed holds.
	var batch []Triple
	for r := 0; len(batch) < 5000; r++ {
		for _, tr := range directTriples(w, len(w.Events)) {
			tr.Provenance.Source = fmt.Sprintf("direct-%d", r)
			batch = append(batch, tr)
		}
	}
	written := make(chan struct{})
	go func() {
		defer close(written)
		p.KG().AddFacts(batch)
	}()
	deadline := time.After(time.Minute)
	for done := false; !done; {
		queried := make(chan struct{})
		go func() {
			defer close(queried)
			p.KG().ReadLocked(func() {
				if _, err := p.exec.Run(plan.PatternsPlan(5)); err != nil {
					t.Error(err)
				}
			})
		}()
		select {
		case <-queried:
		case <-deadline:
			t.Fatal("a patterns query under the KG read lock never finished")
		}
		select {
		case <-written:
			done = true
		case <-deadline:
			t.Fatal("the writer never finished")
		default:
		}
	}
	if _, errs := p.KG().AddFacts(directTriples(w, 60)); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n := p.miner.Backlog(); n != 0 {
		t.Fatalf("Close left %d posts in the miner's feed", n)
	}
	matchesReferenceMiner(t, "after Close", p, ref)
}
