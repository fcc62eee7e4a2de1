package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nous"
	"nous/internal/core"
	"nous/internal/fgm"
	"nous/internal/linkpred"
	"nous/internal/persist"
	"nous/internal/trust"
)

// probeEntity is in every generated world's fixed cast.
const probeEntity = "DJI"

// kgState is what must survive a restart unchanged.
type kgState struct {
	Epoch  uint64
	Facts  int
	Digest string
	Probe  int // facts in the probe question's answer
}

func stateOf(p *nous.Pipeline) (kgState, error) {
	d, err := exportDigest(p.KG())
	if err != nil {
		return kgState{}, err
	}
	n, err := probeAnswer(p)
	return kgState{Epoch: p.KG().Graph().Epoch(), Facts: p.KG().NumFacts(), Digest: d, Probe: n}, err
}

// probeAnswer asks the fixed probe question and returns the number of facts
// in the answer; an answer about another entity, or none, is an error.
func probeAnswer(p *nous.Pipeline) (int, error) {
	a, err := p.Ask("Tell me about " + probeEntity)
	if err != nil {
		return 0, err
	}
	if a.Entity == nil || a.Entity.Name != probeEntity {
		return 0, fmt.Errorf("probe answer is not about %s", probeEntity)
	}
	return len(a.Entity.Facts), nil
}

// addAll writes triples through KG.AddFacts in batches of 512, failing on
// the first rejected fact.
func addAll(kg *nous.KG, ts []nous.Triple) error {
	for len(ts) > 0 {
		n := len(ts)
		if n > 512 {
			n = 512
		}
		_, errs := kg.AddFacts(ts[:n])
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		ts = ts[n:]
	}
	return nil
}

// runRestart is the restart_recover workload. Set-up builds a data
// directory: curated KB, RestartPreIngest articles and SynSnapshot synthetic facts
// under a checkpoint, SynTail more facts in the WAL after it. The timed
// phase closes and reopens it — nous.OpenWithOptions to the first correct
// answer to the probe question — until -seconds have passed and at least
// MinRestarts recoveries were timed.
func runRestart(cfg *config) (*result, error) {
	sz := cfg.Sizes
	var want kgState
	sys, setupS, err := measureSetup(cfg, func() (*system, error) {
		s, err := openSystem(cfg, sz.RestartPreIngest, 0)
		if err != nil {
			return nil, err
		}
		s.p.IngestAll(s.articles)
		err = addAll(s.p.KG(), synthFacts(cfg.Seed, 0, sz.SynSnapshot))
		if err == nil {
			err = s.p.Checkpoint()
		}
		if err == nil {
			err = addAll(s.p.KG(), synthFacts(cfg.Seed, sz.SynSnapshot, sz.SynTail))
		}
		if err == nil {
			want, err = stateOf(s.p)
		}
		if err == nil {
			p := s.p
			s.p = nil
			err = p.Close()
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res := newResult()
	res.set("setup_s", setupS)
	cfg.printf("data dir: %d facts at epoch %d, of which %d synthetic under the snapshot and %d in the WAL tail\n",
		want.Facts, want.Epoch, sz.SynSnapshot, sz.SynTail)

	var tr *tracer
	if cfg.Trace {
		tr = newTracer(time.Now(), 0)
	}
	var recoverS, tracedS []float64
	start := time.Now()
	for cycle := 0; ; cycle++ {
		if tr != nil && cycle%2 == 1 {
			d, err := tracedRecovery(tr, sys, cycle, res, want)
			if err != nil {
				return nil, err
			}
			tracedS = append(tracedS, d.Seconds())
			continue
		}
		// Collect the previous pipeline off the clock, so every recovery
		// starts from the same heap.
		runtime.GC()
		t0 := time.Now()
		p, err := nous.OpenWithOptions(sys.dir, sys.world.Ontology, nous.DefaultConfig(), persistOptions())
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", cycle, err)
		}
		n, err := probeAnswer(p)
		recoverS = append(recoverS, time.Since(t0).Seconds())
		res.check(err == nil && n == want.Probe, "recovery %d: probe answered %d facts (%v), want %d", cycle, n, err, want.Probe)
		if time.Since(start).Seconds() >= cfg.Seconds && len(recoverS)+len(tracedS) >= sz.MinRestarts {
			// The last recovered pipeline stays open for the heap and disk
			// measurements.
			sys.p = p
			break
		}
		checkRecovered(res, cycle, p, want, cycle == 0)
		if err := p.Close(); err != nil {
			return nil, err
		}
	}
	checkRecovered(res, len(recoverS), sys.p, want, true)
	med := median(recoverS)
	res.set("ops_per_s", 1/med)
	res.set("op_p50_ms", 1000*med)
	res.set("live_heap_mb", liveHeapMiB())
	cfg.printf("recover_s median %.4f s over %d recoveries (min %.4f, max %.4f): %.3f\n",
		med, len(recoverS), percentile(recoverS, 0), percentile(recoverS, 100), recoverS)
	ps, _ := sys.p.PersistStats()
	cfg.printf("persist: replayed %d WAL records on the last open, snapshot epoch %d\n", ps.ReplayedRecords, ps.SnapshotEpoch)

	if tr != nil {
		if err := restartLayers(cfg, tr, sys, res, med, tracedS, float64(ps.ReplayedRecords)); err != nil {
			return nil, err
		}
	}

	perFact, err := diskBytesPerFact(sys.p, sys.dir)
	if err != nil {
		return nil, err
	}
	res.set("disk_bytes_per_fact", perFact)
	if err := durabilityProbe(cfg, sys, res); err != nil {
		return nil, fmt.Errorf("durability probe: %w", err)
	}
	return res, nil
}

// checkRecovered compares a recovered pipeline with the pre-close state:
// epoch and fact count every time, the export digest when withDigest.
func checkRecovered(res *result, cycle int, p *nous.Pipeline, want kgState, withDigest bool) {
	kg := p.KG()
	res.check(kg.Graph().Epoch() == want.Epoch, "recovery %d: epoch %d, want %d", cycle, kg.Graph().Epoch(), want.Epoch)
	res.check(kg.NumFacts() == want.Facts, "recovery %d: %d facts, want %d", cycle, kg.NumFacts(), want.Facts)
	if withDigest {
		d, err := exportDigest(kg)
		res.check(err == nil && d == want.Digest, "recovery %d: export digest %.12s (%v), want %.12s", cycle, d, err, want.Digest)
	}
}

// tracedRecovery does what nous.OpenWithOptions does, one layer call per
// span, then replays the parts of pipeline assembly on the recovered facts:
//
//	recover
//	├ persist.open         persist.Open (snapshot decode + WAL replay)
//	├ core.rebuild         core.KG.Rebuild (entity/fact/time indexes)
//	├ nous.newpipeline     nous.NewPipeline
//	│ ├ fgm.addbatch       fgm.Miner.AddBatch over every fact
//	│ ├ linkpred.train     linkpred.Train over every fact
//	│ ├ ner.gazetteer      ner.Recognizer built from every alias
//	│ └ trust.seed         trust.Tracker seeded with every fact
//	└ pipeline.ask         the probe question
func tracedRecovery(tr *tracer, sys *system, cycle int, res *result, want kgState) (time.Duration, error) {
	ont := sys.world.Ontology
	runtime.GC()
	root := tr.begin("recover", 0, cycle)
	kg := core.NewKG(ont)
	var st *persist.Store
	var err error
	tr.time("persist.open", root, cycle, func() { st, err = persist.Open(sys.dir, kg.Graph(), persistOptions()) })
	if err != nil {
		return 0, err
	}
	defer st.Close()
	tr.time("core.rebuild", root, cycle, func() { err = kg.Rebuild() })
	if err != nil {
		return 0, err
	}
	asm := tr.begin("nous.newpipeline", root, cycle)
	p := nous.NewPipeline(kg, nous.DefaultConfig())
	tr.end(asm)
	var n int
	tr.time("pipeline.ask", root, cycle, func() { n, err = probeAnswer(p) })
	d := tr.end(root)
	res.check(err == nil && n == want.Probe, "traced recovery %d: probe answered %d facts (%v), want %d", cycle, n, err, want.Probe)

	facts := kg.AllFacts()
	tr.time("fgm.addbatch", asm, cycle, func() { fgm.NewMiner(fgm.DefaultConfig()).AddBatch(minerEdges(facts)) })
	tr.time("linkpred.train", asm, cycle, func() { linkpred.Train(triplesOf(facts), linkpred.DefaultConfig()) })
	tr.time("ner.gazetteer", asm, cycle, func() { gazetteer(kg) })
	tr.time("trust.seed", asm, cycle, func() {
		t := trust.NewTracker(ont, trust.DefaultConfig())
		for _, f := range facts {
			if f.Curated && f.Provenance.Source != "" {
				t.Pin(f.Provenance.Source, 0.95)
			}
			t.Observe(trust.Assertion{Source: f.Provenance.Source, Subject: f.Subject, Predicate: f.Predicate, Object: f.Object})
		}
	})
	return d, nil
}

// restartLayers reports the traced run's per-layer metrics and span file.
func restartLayers(cfg *config, tr *tracer, sys *system, res *result, untracedMed float64, tracedS []float64, replayed float64) error {
	sec := func(name string) float64 { return tr.medianOf(name, time.Second) }
	res.set("persist_open_s", sec("persist.open"))
	res.set("rebuild_s", sec("core.rebuild"))
	res.set("assemble_s", sec("nous.newpipeline"))
	res.set("assemble_miner_s", sec("fgm.addbatch"))
	res.set("assemble_linkpred_s", sec("linkpred.train"))
	res.set("assemble_gazetteer_s", sec("ner.gazetteer"))
	res.set("assemble_trust_s", sec("trust.seed"))
	res.set("replayed_records", replayed)
	if untracedMed > 0 {
		res.set("span_coverage", (sec("persist.open")+sec("core.rebuild")+sec("nous.newpipeline"))/untracedMed)
		res.set("trace_overhead_pct", 100*(median(tracedS)-untracedMed)/untracedMed)
	}
	cfg.printf("recover: untraced median %.4f s, traced median %.4f s over %d traced recoveries; recording one span costs %d ns\n",
		untracedMed, median(tracedS), len(tracedS), spanCost().Nanoseconds())
	tr.printTable(cfg.Out)
	if err := tr.writeFile(cfg.traceOut(), cfg.Workload); err != nil {
		return err
	}
	cfg.printf("spans written to %s\n", cfg.traceOut())
	return nil
}

// durabilityProbe checks that every write acknowledged before a
// Store.Sync() survives losing everything written after it. Killing the
// process would leave the operating system's cache intact, so the probe
// discards the unflushed bytes itself: it records the data directory's file
// sizes at the sync, writes more without syncing, and reopens a copy
// truncated to the recorded sizes.
func durabilityProbe(cfg *config, sys *system, res *result) error {
	sz := cfg.Sizes
	// The store's Sync is not reachable through nous.Pipeline, so the probe
	// closes the pipeline and drives persist.Open on a copy of its directory.
	p := sys.p
	sys.p = nil
	if err := p.Close(); err != nil {
		return err
	}
	live, err := os.MkdirTemp(cfg.WorkDir, "durable-live-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(live)
	all, err := fileSizes(sys.dir)
	if err != nil {
		return err
	}
	if err := copyDir(sys.dir, live, all); err != nil {
		return err
	}
	kg := core.NewKG(sys.world.Ontology)
	st, err := persist.Open(live, kg.Graph(), persistOptions())
	if err != nil {
		return err
	}
	defer st.Close()
	if err := kg.Rebuild(); err != nil {
		return err
	}
	before := kg.NumFacts()
	acked := synthFacts(cfg.Seed, sz.SynSnapshot+sz.SynTail, sz.DurabilityFacts)
	if err := addAll(kg, acked); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}
	synced, err := fileSizes(live)
	if err != nil {
		return err
	}
	if err := addAll(kg, synthFacts(cfg.Seed, sz.SynSnapshot+sz.SynTail+sz.DurabilityFacts, sz.DurabilityFacts)); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}

	crashed, err := os.MkdirTemp(cfg.WorkDir, "durable-crashed-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(crashed)
	if err := copyDir(live, crashed, synced); err != nil {
		return err
	}
	rkg := core.NewKG(sys.world.Ontology)
	rst, err := persist.Open(crashed, rkg.Graph(), persistOptions())
	if err != nil {
		return err
	}
	defer rst.Close()
	if err := rkg.Rebuild(); err != nil {
		return err
	}
	lost := 0
	for _, t := range acked {
		ok := rkg.HasFact(t.Subject, t.Predicate, t.Object)
		res.check(ok, "durability: acknowledged fact %s -%s-> %s lost after the simulated crash", t.Subject, t.Predicate, t.Object)
		if !ok {
			lost++
		}
	}
	res.check(rkg.NumFacts() >= before+len(acked), "durability: %d facts after the simulated crash, want at least %d", rkg.NumFacts(), before+len(acked))
	cfg.printf("durability: %d facts acknowledged before Sync, %d lost after discarding unsynced bytes; %d of %d later facts also survived\n",
		len(acked), lost, rkg.NumFacts()-before-len(acked)+lost, sz.DurabilityFacts)
	return nil
}

// fileSizes maps each regular file directly under dir to its size.
func fileSizes(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = info.Size()
	}
	return out, nil
}

// copyDir copies from src into dst the files sizes names, each cut to the
// size it gives: with the sizes of an earlier moment, what had reached the
// files by then.
func copyDir(src, dst string, sizes map[string]int64) error {
	for name, size := range sizes {
		if err := copyFile(filepath.Join(src, name), filepath.Join(dst, name), size); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string, size int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, io.LimitReader(in, size)); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
