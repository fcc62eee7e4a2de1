package nous

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/fgm"
	"nous/internal/linkpred"
	"nous/internal/ner"
	"nous/internal/ontology"
	"nous/internal/trends"
	"nous/internal/trust"
)

// refAssembly is the fact-log state NewPipeline derives, seeded the way
// assembly seeded it before it became one pass over the graph: from the
// materialised fact list (kg.AllFacts()), with the miner handed every fact
// in one AddBatch, the trend table, source trust and the gate model's
// training set filled from the list, the model trained on whole curated
// Triples, and the gazetteer fed its bindings in (alias, canonical) order.
type refAssembly struct {
	miner   *fgm.Miner
	trends  *trends.Table
	tracker *trust.Tracker
	model   *linkpred.Model
	gaz     *ner.Recognizer
}

func refAssemble(kg *KG, cfg Config) *refAssembly {
	r := &refAssembly{miner: fgm.NewMiner(cfg.Miner)}
	facts := kg.AllFacts()
	seed := make([]fgm.Edge, len(facts))
	for i := range facts {
		seed[i] = minerEdge(&facts[i])
	}
	r.miner.AddBatch(seed)
	r.miner.Advance(int64(kg.Graph().NextEdge()))
	r.trends = trends.Track(kg, cfg.Trends)
	for i := range facts {
		r.trends.Seed(&facts[i])
	}
	kg.Subscribe(func(ev core.Event) {
		switch ev.Kind {
		case core.FactAdded:
			r.miner.Add(minerEdge(&ev.Fact))
		case core.FactEvicted:
			r.miner.Remove(int64(ev.Fact.ID))
		}
	})

	var curated []core.Triple
	r.tracker = trust.NewTracker(kg.Ontology(), trust.DefaultConfig())
	for _, f := range facts {
		if f.Curated {
			curated = append(curated, f.Triple)
			if f.Provenance.Source != "" {
				r.tracker.Pin(f.Provenance.Source, 0.95)
			}
		}
		r.tracker.Observe(trust.Assertion{
			Source: f.Provenance.Source, Subject: f.Subject,
			Predicate: f.Predicate, Object: f.Object,
		})
	}
	r.model = linkpred.Train(curated, linkpred.DefaultConfig())

	type binding struct {
		alias, canonical string
		typ              ontology.EntityType
	}
	var bs []binding
	kg.ForEachAlias(func(alias, canonical string, typ ontology.EntityType) {
		bs = append(bs, binding{alias, canonical, typ})
	})
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].alias != bs[j].alias {
			return bs[i].alias < bs[j].alias
		}
		return bs[i].canonical < bs[j].canonical
	})
	r.gaz = ner.NewRecognizer()
	for _, b := range bs {
		r.gaz.AddGazetteer(b.alias, b.typ)
	}
	return r
}

// sameTrending compares the pipeline's trending with the reference table's:
// live (the unbounded window, at the pipeline clock) and in bounded windows
// around it.
func sameTrending(p *Pipeline, r *refAssembly) error {
	now := p.now()
	if got, want := p.Trending(0), r.trends.Trending(now, 0); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Trending:\n got %+v\nwant %+v", got, want)
	}
	if len(p.Trending(0)) == 0 {
		return fmt.Errorf("nothing trends")
	}
	for _, back := range []time.Duration{7 * 24 * time.Hour, 90 * 24 * time.Hour, 3 * 365 * 24 * time.Hour} {
		w := Window{Since: now.Add(-back).Unix(), Until: now.Unix()}
		if got, want := p.trends.Window(w, 0), r.trends.Window(w, 0); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("trending in %v:\n got %+v\nwant %+v", w, got, want)
		}
	}
	return nil
}

// samePatterns compares the closed patterns both miners report.
func samePatterns(p *Pipeline, r *refAssembly) error {
	got, want := p.Patterns(0), r.miner.ClosedPatterns(0)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Patterns(0): %d patterns, reference %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	if len(got) == 0 {
		return fmt.Errorf("the miner reports no pattern")
	}
	return nil
}

// sameModel compares the gate models' summaries and their Score bits on
// every stored fact and on absent triples of each curated predicate.
func sameModel(p *Pipeline, r *refAssembly) error {
	got := p.LinkPredictor()
	if g, w := got.String(), r.model.String(); g != w {
		return fmt.Errorf("model %s, reference %s", g, w)
	}
	facts := p.KG().AllFacts()
	probes := make([]core.Triple, 0, 2*len(facts))
	for i, f := range facts {
		probes = append(probes, f.Triple)
		o := facts[(i*7+3)%len(facts)]
		probes = append(probes, core.Triple{Subject: f.Subject, Predicate: f.Predicate, Object: o.Object})
	}
	for _, tr := range probes {
		g, w := got.Score(tr.Subject, tr.Predicate, tr.Object), r.model.Score(tr.Subject, tr.Predicate, tr.Object)
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("Score(%s, %s, %s) = %v, reference %v", tr.Subject, tr.Predicate, tr.Object, g, w)
		}
	}
	return nil
}

// sameTrust compares every source's trust, bit for bit.
func sameTrust(p *Pipeline, r *refAssembly) error {
	got, want := p.SourceTrust(), r.tracker.Sources()
	if len(got) != len(want) || len(got) == 0 {
		return fmt.Errorf("SourceTrust lists %d sources, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Source != want[i].Source || math.Float64bits(got[i].Trust) != math.Float64bits(want[i].Trust) {
			return fmt.Errorf("SourceTrust[%d] = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkAssemblyMatchesReference builds a durable pipeline from the world of
// seed, with a stream window that evicts, and leaves a directory whose
// snapshot holds the first half of the stream and whose WAL the rest. A
// re-run of the stream's first articles stores facts that the window evicts
// at once, so the stored fact IDs have gaps, at the top too. The directory
// is then reopened under a miner count window that holds the newer half of
// the stored facts, so it binds, and the reopened pipeline is compared with the
// reference seeding of the same KG: at assembly on every fold, and after
// more articles on the two folds live writes move.
func checkAssemblyMatchesReference(t *testing.T, seed int64) {
	wcfg := DefaultWorldConfig()
	wcfg.Seed = seed
	wcfg.Companies, wcfg.People, wcfg.Products, wcfg.Events = 12, 12, 12, 300
	wcfg.Start, wcfg.End = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2015, 12, 31, 0, 0, 0, 0, time.UTC)
	w := GenerateWorld(wcfg)
	acfg := DefaultArticleConfig(260)
	acfg.Seed = seed
	arts := GenerateArticles(w, acfg)
	cfg := DefaultConfig()
	cfg.Stream.Window = 120 * 24 * time.Hour
	cfg.Stream.Workers = 2
	opt := PersistOptions{GroupCommitBytes: 1 << 20, FlushInterval: time.Hour, DisableAutoCheckpoint: true}

	dir := t.TempDir()
	p, err := OpenWithOptions(dir, w.Ontology, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SeedKG(p.KG()); err != nil {
		t.Fatal(err)
	}
	p.IngestAll(arts[:100])
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.IngestAll(arts[100:200])
	p.IngestAll(arts[:15])
	st := p.Stats()
	facts, next := p.KG().AllFacts(), p.KG().Graph().NextEdge()
	n := len(facts)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st.FactsEvicted == 0 || int64(next) == int64(n) {
		t.Fatalf("seed %d: no fact ID gaps: %d evicted, %d facts under allocator %d", seed, st.FactsEvicted, n, next)
	}

	// The count window holds the newer half of the stored facts.
	cfg.Miner.WindowSize = int(next - facts[n/2].ID)
	p, err = OpenWithOptions(dir, w.Ontology, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if ps, _ := p.PersistStats(); ps.ReplayedRecords == 0 {
		t.Fatalf("seed %d: the reopen replayed no WAL record", seed)
	}
	r := refAssemble(p.KG(), cfg)

	for _, check := range []func(*Pipeline, *refAssembly) error{samePatterns, sameTrending, sameTrust, sameModel} {
		if err := check(p, r); err != nil {
			t.Fatalf("seed %d, at assembly: %v", seed, err)
		}
	}
	if got := p.stream.Recognizer(); !reflect.DeepEqual(got, r.gaz) {
		t.Fatalf("seed %d: the gazetteer differs from the one built in sorted binding order", seed)
	}

	p.IngestAll(arts[200:])
	for _, check := range []func(*Pipeline, *refAssembly) error{samePatterns, sameTrending} {
		if err := check(p, r); err != nil {
			t.Fatalf("seed %d, after ingest: %v", seed, err)
		}
	}
}

// FuzzAssemblyMatchesReference: whatever world the seed generates, the
// pipeline assembled by one ID-ordered pass over a reopened graph — its
// miner seeded with the window's facts alone, its gazetteer fed in no
// particular order — mines, trends, trusts, scores and recognizes exactly
// like the reference seeding from the materialised fact list.
func FuzzAssemblyMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 42, 7919, -5} {
		f.Add(seed)
	}
	f.Fuzz(checkAssemblyMatchesReference)
}
