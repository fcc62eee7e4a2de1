package nous_test

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"nous"
	"nous/internal/ontology"
)

// smallPersistConfig keeps the integration corpus quick.
func smallPersistConfig() (nous.Config, *nous.World, []nous.Article) {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = 7
	w := nous.GenerateWorld(wcfg)
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(60))
	return nous.DefaultConfig(), w, arts
}

// quickPersist avoids timer-driven flushes in tests; everything is made
// durable by explicit Checkpoint/Close.
func quickPersist() nous.PersistOptions {
	return nous.PersistOptions{
		GroupCommitBytes:      1 << 20,
		FlushInterval:         time.Hour,
		DisableAutoCheckpoint: true,
	}
}

// TestDurableRoundTrip locks in the acceptance invariant: ingest a corpus,
// checkpoint, reopen in a fresh pipeline (a stand-in for a fresh process —
// nothing is shared but the directory), and observe the identical epoch,
// vertex/edge counts and byte-identical /api/v1/graph export.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg, w, arts := smallPersistConfig()

	p, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SeedKG(p.KG()); err != nil {
		t.Fatal(err)
	}
	p.IngestAll(arts)
	wantEpoch := p.KG().Graph().Epoch()
	wantVertices := p.KG().Graph().NumVertices()
	wantEdges := p.KG().Graph().NumEdges()
	wantEntities := p.KG().Entities()
	var wantExport bytes.Buffer
	if err := p.KG().ExportJSON(&wantExport); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.KG().Graph().Epoch(); got != wantEpoch {
		t.Errorf("epoch after reopen = %d, want %d", got, wantEpoch)
	}
	if got := p2.KG().Graph().NumVertices(); got != wantVertices {
		t.Errorf("vertices after reopen = %d, want %d", got, wantVertices)
	}
	if got := p2.KG().Graph().NumEdges(); got != wantEdges {
		t.Errorf("edges after reopen = %d, want %d", got, wantEdges)
	}
	got := p2.KG().Entities()
	if len(got) != len(wantEntities) {
		t.Fatalf("entities after reopen = %d, want %d", len(got), len(wantEntities))
	}
	for i := range got {
		if got[i] != wantEntities[i] {
			t.Fatalf("entity %d = %q, want %q", i, got[i], wantEntities[i])
		}
	}
	var gotExport bytes.Buffer
	if err := p2.KG().ExportJSON(&gotExport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantExport.Bytes(), gotExport.Bytes()) {
		t.Error("/api/v1/graph export differs after recovery")
	}

	// The recovered pipeline must stay fully queryable.
	if _, err := p2.Ask("Tell me about DJI"); err != nil {
		t.Errorf("query after recovery: %v", err)
	}
	st, ok := p2.PersistStats()
	if !ok {
		t.Fatal("PersistStats: not durable after OpenWithOptions")
	}
	if st.SnapshotEpoch != wantEpoch {
		t.Errorf("snapshot epoch = %d, want %d", st.SnapshotEpoch, wantEpoch)
	}
}

// TestDurableWALOnlyRecovery reopens without any checkpoint: the whole
// corpus must come back from the write-ahead log alone.
func TestDurableWALOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg, w, arts := smallPersistConfig()

	p, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SeedKG(p.KG()); err != nil {
		t.Fatal(err)
	}
	p.IngestAll(arts[:30])
	wantEpoch := p.KG().Graph().Epoch()
	wantFacts := p.KG().NumFacts()
	if err := p.Close(); err != nil { // flushes the WAL; no snapshot exists
		t.Fatal(err)
	}

	p2, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.KG().Graph().Epoch(); got != wantEpoch {
		t.Errorf("epoch = %d, want %d", got, wantEpoch)
	}
	if got := p2.KG().NumFacts(); got != wantFacts {
		t.Errorf("facts = %d, want %d", got, wantFacts)
	}
	st, _ := p2.PersistStats()
	if st.ReplayedRecords == 0 {
		t.Error("expected WAL replay, got none")
	}

	// Ingestion must resume cleanly on the recovered graph.
	p2.IngestAll(arts[30:])
	if p2.KG().NumFacts() < wantFacts {
		t.Errorf("facts shrank after resumed ingest: %d < %d", p2.KG().NumFacts(), wantFacts)
	}
}

// TestIngestWhileCheckpointing runs the durable pipeline's full write path
// concurrently with repeated checkpoints (the race test from the issue:
// `go test -race` exercises ingest-during-snapshot), then proves the final
// state recovers exactly.
func TestIngestWhileCheckpointing(t *testing.T) {
	dir := t.TempDir()
	cfg, w, arts := smallPersistConfig()

	p, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SeedKG(p.KG()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < len(arts); i += 10 {
			p.IngestAll(arts[i:min(i+10, len(arts))])
		}
	}()
	for checkpointing := true; checkpointing; {
		select {
		case <-done:
			checkpointing = false
		default:
			if err := p.Checkpoint(); err != nil {
				t.Error(err)
				checkpointing = false
			}
		}
	}
	wg.Wait()
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantEpoch := p.KG().Graph().Epoch()
	wantFacts := p.KG().NumFacts()
	var wantExport bytes.Buffer
	if err := p.KG().ExportJSON(&wantExport); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _ := p.PersistStats(); st.LastError != "" {
		t.Fatalf("persistence error during concurrent run: %s", st.LastError)
	}

	p2, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.KG().Graph().Epoch(); got != wantEpoch {
		t.Errorf("epoch = %d, want %d", got, wantEpoch)
	}
	if got := p2.KG().NumFacts(); got != wantFacts {
		t.Errorf("facts = %d, want %d", got, wantFacts)
	}
	var gotExport bytes.Buffer
	if err := p2.KG().ExportJSON(&gotExport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantExport.Bytes(), gotExport.Bytes()) {
		t.Error("export differs after concurrent checkpointing run")
	}
}

// openSeeded opens a durable pipeline over a fresh directory holding the
// world's curated KB. The KB is written through a first pipeline,
// checkpointed, and the directory reopened, so the returned pipeline is
// assembled over the curated substrate.
func openSeeded(t *testing.T, dir string, w *nous.World, cfg nous.Config, opt nous.PersistOptions) *nous.Pipeline {
	t.Helper()
	p, err := nous.OpenWithOptions(dir, w.Ontology, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SeedKG(p.KG()); err != nil {
		t.Fatal(err)
	}
	return reopen(t, p, dir, w, cfg, opt)
}

// reopen checkpoints and closes p, then opens its directory again.
func reopen(t *testing.T, p *nous.Pipeline, dir string, w *nous.World, cfg nous.Config, opt nous.PersistOptions) *nous.Pipeline {
	t.Helper()
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := nous.OpenWithOptions(dir, w.Ontology, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGateModelRestartInvariant: the link predictor that gates extracted
// facts is trained on the curated substrate alone and never updated, so a
// restart partway through the stream leaves it bit-identical. Arm A ingests
// every article in one process; arm B checkpoints, closes and reopens after
// half of them. Both run the extraction worker pool beside the background
// checkpointer (a small WAL budget makes it roll snapshots during ingest).
func TestGateModelRestartInvariant(t *testing.T) {
	cfg, w, _ := smallPersistConfig()
	cfg.Stream.Workers = 2
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(160))
	opt := nous.PersistOptions{GroupCommitBytes: 4 << 10, FlushInterval: time.Hour, WALSizeBudget: 2 << 10}

	dirA := t.TempDir()
	a := openSeeded(t, dirA, w, cfg, opt)
	defer a.Close()
	a.IngestAll(arts)

	dirB := t.TempDir()
	b := openSeeded(t, dirB, w, cfg, opt)
	b.IngestAll(arts[:len(arts)/2])
	// The checkpointer runs behind ingest; give a queued snapshot time to land.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := b.PersistStats(); st.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the background checkpointer rolled no snapshot during ingest")
		}
	}
	b = reopen(t, b, dirB, w, cfg, opt)
	defer b.Close()
	b.IngestAll(arts[len(arts)/2:])

	// Every fact either arm stored, and absent company-to-company triples
	// under one curated predicate and three the curated KB lacks.
	var probes []nous.Triple
	for _, p := range []*nous.Pipeline{a, b} {
		for _, f := range p.KG().AllFacts() {
			probes = append(probes, f.Triple)
		}
	}
	companies := w.EntitiesOfType(ontology.TypeCompany)[:10]
	absent := 0
	for _, pred := range []string{"acquired", "partnersWith", "invests", "competesWith"} {
		for _, s := range companies {
			for _, o := range companies {
				if s != o && !a.KG().HasFact(s, pred, o) && !b.KG().HasFact(s, pred, o) {
					probes = append(probes, nous.Triple{Subject: s, Predicate: pred, Object: o})
					absent++
				}
			}
		}
	}
	if absent < 100 {
		t.Fatalf("only %d absent probe triples", absent)
	}
	ma, mb := a.LinkPredictor(), b.LinkPredictor()
	diffs := 0
	for _, tr := range probes {
		sa, sb := ma.Score(tr.Subject, tr.Predicate, tr.Object), mb.Score(tr.Subject, tr.Predicate, tr.Object)
		if math.Float64bits(sa) != math.Float64bits(sb) {
			if diffs++; diffs <= 5 {
				t.Errorf("Score(%s, %s, %s): uninterrupted %v, restarted %v", tr.Subject, tr.Predicate, tr.Object, sa, sb)
			}
		}
	}
	if diffs > 0 {
		t.Errorf("%d of %d probe triples score differently after a restart", diffs, len(probes))
	}
}

// TestPredictFallbackForExtractedAcquirer pins what training on the
// curated substrate alone costs: "Did X acquire Y?" about an absent fact,
// for an X that only extraction has seen acquiring anything, answers with
// the model's global fallback, not a learned score. A live leader and the
// same directory reopened agree. (The generated curated KB holds no
// acquisition at all, so every acquisition scores the fallback.)
func TestPredictFallbackForExtractedAcquirer(t *testing.T) {
	cfg, w, arts := smallPersistConfig()
	dir := t.TempDir()
	opt := quickPersist()
	p := openSeeded(t, dir, w, cfg, opt)
	p.IngestAll(arts)

	curatedAcquirer := map[string]bool{}
	var extracted []nous.Fact
	for _, f := range p.KG().AllFacts() {
		switch {
		case f.Predicate != "acquired":
		case f.Curated:
			curatedAcquirer[f.Subject] = true
		default:
			extracted = append(extracted, f)
		}
	}
	// X acquired something only in extracted facts; Y is another extracted
	// acquisition's target that X is not stored as acquiring.
	var x, y string
	for _, f := range extracted {
		if curatedAcquirer[f.Subject] {
			continue
		}
		for _, g := range extracted {
			if g.Object != f.Subject && !p.KG().HasFact(f.Subject, "acquired", g.Object) {
				x, y = f.Subject, g.Object
				break
			}
		}
		if x != "" {
			break
		}
	}
	if x == "" {
		t.Fatal("no acquirer that only extraction has seen")
	}
	q := "Did " + x + " acquire " + y + "?"

	plausible := func(p *nous.Pipeline) float64 {
		t.Helper()
		ans, err := p.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Fact == nil || ans.Fact.Known {
			t.Fatalf("%s: want an unknown-fact answer, got %+v", q, ans.Fact)
		}
		return ans.Fact.Plausible
	}
	// A predicate the model never saw scores the global fallback.
	fallback := p.LinkPredictor().Score(x, "noSuchPredicate", y)
	live := plausible(p)
	if live != fallback {
		t.Errorf("%s on the live leader: plausibility %v, want the global fallback %v", q, live, fallback)
	}
	p = reopen(t, p, dir, w, cfg, opt)
	defer p.Close()
	if got := plausible(p); math.Float64bits(got) != math.Float64bits(live) {
		t.Errorf("%s after reopen: plausibility %v, live leader said %v", q, got, live)
	}
}
