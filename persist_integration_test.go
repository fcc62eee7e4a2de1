package nous_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"nous"
)

// smallPersistConfig keeps the integration corpus quick.
func smallPersistConfig() (nous.Config, *nous.World, []nous.Article) {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = 7
	w := nous.GenerateWorld(wcfg)
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(60))
	cfg := nous.DefaultConfig()
	cfg.LDAIters = 5
	return cfg, w, arts
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
