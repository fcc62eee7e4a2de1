package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"nous"
	"nous/internal/core"
	"nous/internal/disambig"
	"nous/internal/extract"
	"nous/internal/fgm"
	"nous/internal/linkpred"
	"nous/internal/ner"
	"nous/internal/nlp"
	"nous/internal/ontology"
	"nous/internal/persist"
	"nous/internal/predmap"
)

// Floors of the ingest quality oracle. internal/stream's tests pin recall
// 0.5 and precision 0.6 with aliases switched off; the benchmark keeps the
// default alias rate, so disambiguation errors join the 10 % rumours among
// the false facts and the precision floor sits a little lower.
const (
	recallFloor    = 0.5
	precisionFloor = 0.55
)

// runIngest is the ingest_stream workload: a durable pipeline integrates a
// fixed-size article stream with Pipeline.IngestAll, one chunk at a time. The
// stream is IngestDocsPerSec articles per second of -seconds — about what
// this commit ingests in that time on two cores — and is fixed rather than
// cut off by the clock, because the cost of a document depends on how far
// into the stream it is: two runs compare only over the same documents.
func runIngest(cfg *config) (*result, error) {
	sz := cfg.Sizes
	streamDocs := max(int(cfg.Seconds*float64(sz.IngestDocsPerSec))/sz.ChunkDocs*sz.ChunkDocs, sz.DetDocs)
	sys, setupS, err := measureSetup(cfg, func() (*system, error) { return openSystem(cfg, streamDocs, 0) })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res := newResult()
	res.set("setup_s", setupS)
	if cfg.Trace {
		return res, ingestTraced(cfg, sys, res)
	}

	// Timed phase. Only IngestAll is on the clock; the determinism oracle's
	// export after the first DetDocs articles is not.
	var chunkMS []float64
	var busy time.Duration
	var detDigest string
	var detAccepted int
	docs := 0
	for docs < streamDocs {
		chunk := sys.articles[docs : docs+sz.ChunkDocs]
		start := time.Now()
		sys.p.IngestAll(chunk)
		d := time.Since(start)
		busy += d
		chunkMS = append(chunkMS, float64(d)/1e6)
		docs += len(chunk)
		if docs == sz.DetDocs {
			if detDigest, err = exportDigest(sys.p.KG()); err != nil {
				return nil, err
			}
			detAccepted = sys.p.Stats().Accepted
		}
	}
	res.Attempted = docs
	res.set("ops_per_s", float64(docs)/busy.Seconds())
	res.set("op_p50_ms", median(chunkMS))
	res.set("live_heap_mb", liveHeapMiB())

	st := sys.p.Stats()
	cfg.printf("docs_per_s %.1f articles/s over %d articles in %d chunks of %d (%.2f s timed)\n",
		float64(docs)/busy.Seconds(), docs, len(chunkMS), sz.ChunkDocs, busy.Seconds())
	_, tail := tailPercentile(chunkMS)
	cfg.printf("chunk latency p50 %.1f ms, %s (%d samples): %.0f\n", median(chunkMS), tail, len(chunkMS), chunkMS)
	cfg.printf("stream: %d raw triples, %d mapped, %d accepted, %d rejected, %d new entities; KG %d entities, %d facts\n",
		st.RawTriples, st.Mapped, st.Accepted, st.Rejected, st.NewEntities, sys.p.KG().NumEntities(), sys.p.KG().NumFacts())
	if ps, ok := sys.p.PersistStats(); ok {
		cfg.printf("persist: %d WAL records, %d WAL bytes, %d checkpoints during the timed phase\n", ps.WALRecords, ps.WALBytes, ps.Checkpoints)
		res.check(ps.LastError == "", "persist background error: %s", ps.LastError)
	}

	// Oracle 1: equal seeds give equal graphs whatever the worker count.
	ref, err := openSystem(cfg, sz.DetDocs, 1)
	if err != nil {
		return nil, fmt.Errorf("determinism reference: %w", err)
	}
	defer ref.close()
	ref.p.IngestAll(ref.articles)
	refDigest, err := exportDigest(ref.p.KG())
	if err != nil {
		return nil, err
	}
	checkIngestDeterminism(res, detDigest, refDigest, detAccepted, ref.p.Stats().Accepted)

	// Oracle 2: extraction quality against the world's ground truth.
	recall, precision := ingestQuality(sys.world, sys.p.KG(), sys.articles)
	cfg.printf("quality: recall %.3f (floor %.2f), precision %.3f (floor %.2f)\n", recall, recallFloor, precision, precisionFloor)
	res.check(recall >= recallFloor, "recall %.3f below the floor %.2f", recall, recallFloor)
	res.check(precision >= precisionFloor, "precision %.3f below the floor %.2f", precision, precisionFloor)

	perFact, err := diskBytesPerFact(sys.p, sys.dir)
	if err != nil {
		return nil, err
	}
	res.set("disk_bytes_per_fact", perFact)
	return res, nil
}

func checkIngestDeterminism(res *result, digest, refDigest string, accepted, refAccepted int) {
	res.check(digest != "" && digest == refDigest,
		"export digest after the determinism prefix differs between worker counts: %.12s vs %.12s", digest, refDigest)
	res.check(accepted == refAccepted,
		"accepted facts after the determinism prefix differ between worker counts: %d vs %d", accepted, refAccepted)
}

// ingestQuality grades the KG against the world: recall over the events the
// ingested articles report, precision over the extracted (non-curated) facts.
func ingestQuality(w *nous.World, kg *nous.KG, articles []nous.Article) (recall, precision float64) {
	total, hit := 0, 0
	for _, a := range articles {
		for _, ev := range a.Truth {
			total++
			if kg.HasFact(ev.Subject, ev.Predicate, ev.Object) {
				hit++
			}
		}
	}
	type spo struct{ s, p, o string }
	truth := make(map[spo]bool, len(w.Curated)+len(w.Events))
	for _, t := range w.Curated {
		truth[spo{t.Subject, t.Predicate, t.Object}] = true
	}
	for _, e := range w.Events {
		if !e.Rumor {
			truth[spo{e.Subject, e.Predicate, e.Object}] = true
		}
	}
	good, bad := 0, 0
	for _, f := range kg.AllFacts() {
		if f.Curated {
			continue
		}
		if truth[spo{f.Subject, f.Predicate, f.Object}] {
			good++
		} else {
			bad++
		}
	}
	if total > 0 {
		recall = float64(hit) / float64(total)
	}
	if good+bad > 0 {
		precision = float64(good) / float64(good+bad)
	}
	return recall, precision
}

// minerEdge converts a fact the way nous.NewPipeline feeds its miner.
func minerEdge(f nous.Fact) fgm.Edge {
	ts := int64(math.MaxInt64)
	if !f.Curated {
		ts = f.Provenance.Time.Unix()
	}
	return fgm.Edge{
		Src: int64(f.Src), Dst: int64(f.Dst),
		SrcLabel: string(f.SubjectType), DstLabel: string(f.ObjectType),
		Label: f.Predicate, Time: ts,
	}
}

func minerEdges(facts []nous.Fact) []fgm.Edge {
	out := make([]fgm.Edge, len(facts))
	for i, f := range facts {
		out[i] = minerEdge(f)
	}
	return out
}

func triplesOf(facts []nous.Fact) []nous.Triple {
	out := make([]nous.Triple, len(facts))
	for i, f := range facts {
		out[i] = f.Triple
	}
	return out
}

// gazetteer builds the NER recognizer the way stream.NewWith does.
func gazetteer(kg *nous.KG) *ner.Recognizer {
	rec := ner.NewRecognizer()
	kg.ForEachAlias(func(alias, _ string, typ ontology.EntityType) { rec.AddGazetteer(alias, typ) })
	return rec
}

// traceBlock is how many documents run untraced, then traced, in turn: the
// two kinds of block see the same graph growth, so their per-document times
// compare and the difference is the tracing overhead.
const traceBlock = 25

// ingestTraced repeats the workload one document at a time
// (Pipeline.Ingest), recording for each traced document a span tree of
// replays through the layers' public functions:
//
//	pipeline.ingest             nous.Pipeline.Ingest on the system under test
//	├ extract.extract           extract.Extractor.Extract, same gazetteer
//	│ └ nlp.process             nlp.Process
//	├ predmap.map               predmap.Mapper.Map per raw triple
//	├ disambig.linkone          disambig.Linker.LinkOne per ambiguous surface
//	├ linkpred.score / .update  linkpred.Model per mapped triple
//	├ persist.addfacts          core.KG.AddFacts of the document's accepted
//	│ │                         facts on a second durable KG
//	│ └ core.addfacts           the same on an in-memory KG
//	└ fgm.add                   fgm.Miner.Add of the same facts
//
// pipeline.ingest's self time is what the replays do not cover: trust,
// trend hooks, rule learning and the stream stage's own bookkeeping.
func ingestTraced(cfg *config, sys *system, res *result) error {
	kg := sys.p.KG()
	ont := sys.world.Ontology
	curated := kg.AllFacts()

	// Shadow layers, in the state the pipeline's own were assembled in.
	ext := extract.New(gazetteer(kg), ont)
	mapper := predmap.NewMapper(ont, predmap.DefaultConfig())
	mapper.AddDefaultSeeds()
	model := linkpred.Train(triplesOf(curated), linkpred.DefaultConfig())
	miner := fgm.NewMiner(fgm.DefaultConfig())
	miner.AddBatch(minerEdges(curated))
	memKG, err := sys.world.LoadKG()
	if err != nil {
		return err
	}
	durDir, err := os.MkdirTemp(cfg.WorkDir, "shadow-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(durDir)
	durKG := core.NewKG(ont)
	store, err := persist.Open(durDir, durKG.Graph(), persistOptions())
	if err != nil {
		return err
	}
	defer store.Close()
	if err := sys.world.SeedKG(durKG); err != nil {
		return err
	}

	// The facts a document adds are caught by a KG subscription; Ingest runs
	// on this goroutine and calls subscribers synchronously.
	var added []nous.Fact
	kg.Subscribe(func(ev core.Event) {
		if ev.Kind == core.FactAdded {
			added = append(added, ev.Fact)
		}
	})

	tr := newTracer(time.Now(), 0)
	var tracedUS, untracedUS []float64
	var raws, mapped, facts, links int
	var memNS, durNS time.Duration
	start := time.Now()
	doc := 0
	for ; time.Since(start).Seconds() < cfg.Seconds; doc++ {
		a := sys.articles[doc%len(sys.articles)]
		added = added[:0]
		if (doc/traceBlock)%2 == 0 {
			t0 := time.Now()
			sys.p.Ingest(a)
			untracedUS = append(untracedUS, float64(time.Since(t0))/1e3)
			// The shadow stores and miner follow the real ones through
			// untraced documents too, or their replays would run on a
			// sparser graph than the calls they stand for.
			if len(added) > 0 {
				ts := triplesOf(added)
				durKG.AddFacts(ts)
				memKG.AddFacts(ts)
				for _, f := range added {
					miner.Add(minerEdge(f))
				}
			}
			continue
		}
		root := tr.begin("pipeline.ingest", 0, doc)
		sys.p.Ingest(a)
		tracedUS = append(tracedUS, float64(tr.end(root))/1e3)

		var rts []extract.RawTriple
		ex := tr.begin("extract.extract", root, doc)
		rts = ext.Extract(extract.Document{ID: a.ID, Source: a.Source, Date: a.Date, Text: a.Text})
		tr.end(ex)
		tr.time("nlp.process", ex, doc, func() { nlp.Process(a.Text) })
		raws += len(rts)
		for _, rt := range rts {
			var t nous.Triple
			var ok bool
			tr.time("predmap.map", root, doc, func() { t, ok = mapper.Map(rt) })
			if !ok {
				continue
			}
			mapped++
			for _, surface := range []string{t.Subject, t.Object} {
				if len(kg.Candidates(surface)) > 1 {
					links++
					tr.time("disambig.linkone", root, doc, func() {
						sys.p.Linker().LinkOne(disambig.Mention{Surface: surface})
					})
				}
			}
			tr.time("linkpred.score", root, doc, func() { sys.p.LinkPredictor().Score(t.Subject, t.Predicate, t.Object) })
			tr.time("linkpred.update", root, doc, func() { model.Update(t, 2) })
		}
		if len(added) > 0 {
			ts := triplesOf(added)
			facts += len(ts)
			dur := tr.begin("persist.addfacts", root, doc)
			durKG.AddFacts(ts)
			durNS += tr.end(dur)
			memNS += tr.time("core.addfacts", dur, doc, func() { memKG.AddFacts(ts) })
			tr.time("fgm.add", root, doc, func() {
				for _, f := range added {
					miner.Add(minerEdge(f))
				}
			})
		}
	}
	res.Attempted = doc

	table := map[string]layerRow{}
	for _, r := range tr.layerTable() {
		table[r.Name] = r
	}
	traced := float64(len(tracedUS))
	perDoc := func(name string) float64 { // mean µs per traced document
		if traced == 0 {
			return 0
		}
		return float64(table[name].Busy) / 1e3 / traced
	}
	perCall := func(name string) float64 { return tr.medianOf(name, time.Microsecond) }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	res.set("extract_us_per_doc", perDoc("extract.extract"))
	res.set("nlp_us_per_doc", perDoc("nlp.process"))
	res.set("raw_triples_per_doc", ratio(raws, len(tracedUS)))
	res.set("stream_self_us_per_doc", perDoc("pipeline.ingest")-perDoc("extract.extract"))
	res.set("predmap_us_per_triple", perCall("predmap.map"))
	res.set("predmap_mapped_ratio", ratio(mapped, raws))
	res.set("disambig_us_per_link", perCall("disambig.linkone"))
	res.set("linkpred_score_us", perCall("linkpred.score"))
	res.set("linkpred_update_us", perCall("linkpred.update"))
	st := sys.p.Stats()
	res.set("accepted_ratio", ratio(st.Accepted, st.Mapped))
	if facts > 0 {
		res.set("addfacts_us_per_fact", float64(memNS)/1e3/float64(facts))
		res.set("persist_us_per_fact", float64(durNS-memNS)/1e3/float64(facts))
		res.set("fgm_add_us_per_fact", float64(table["fgm.add"].Busy)/1e3/float64(facts))
	}
	if ps, ok := sys.p.PersistStats(); ok && st.Accepted > 0 {
		res.set("wal_bytes_per_fact", float64(ps.WALBytes)/float64(st.Accepted))
		res.set("checkpoints", float64(ps.Checkpoints))
	}
	if root := table["pipeline.ingest"]; root.Busy > 0 {
		res.set("span_coverage", 1-float64(root.Self)/float64(root.Busy))
	}
	if u := median(untracedUS); u > 0 {
		res.set("trace_overhead_pct", 100*(median(tracedUS)-u)/u)
	}

	cfg.printf("%d documents, %d traced; %d raw triples, %d mapped, %d ambiguous surfaces, %d facts added\n",
		doc, len(tracedUS), raws, mapped, links, facts)
	cfg.printf("per-document Pipeline.Ingest: traced median %.0f us, untraced median %.0f us; recording one span costs %d ns\n",
		median(tracedUS), median(untracedUS), spanCost().Nanoseconds())
	tr.printTable(cfg.Out)
	if err := tr.writeFile(cfg.traceOut(), cfg.Workload); err != nil {
		return err
	}
	cfg.printf("spans written to %s\n", cfg.traceOut())
	return nil
}
