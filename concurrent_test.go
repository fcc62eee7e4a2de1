package nous

import "testing"

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
