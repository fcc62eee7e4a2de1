// Command nousbench regenerates every evaluation artifact of the NOUS
// paper: the seven figures (as text/DOT renderings) and the quantitative
// claims (the ~3× streaming-mining speedup, closed-pattern reconstruction,
// BPR link-prediction quality, coherence-ranked path search, AIDA-variant
// disambiguation accuracy and WSJ-scale ingest throughput). EXPERIMENTS.md
// records the outputs side by side with what the paper states.
//
// Usage:
//
//	nousbench -artifact all
//	nousbench -artifact fig6
//	nousbench -artifact 3x
//	nousbench -artifact scale -n 20000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"nous"
	"nous/internal/analytics"
	"nous/internal/disambig"
	"nous/internal/fgm"
	"nous/internal/graph"
	"nous/internal/linkpred"
	"nous/internal/pathsearch"
	"nous/internal/persist"
	"nous/internal/temporal"
)

func main() {
	artifact := flag.String("artifact", "all", "artifact to regenerate: all, fig1..fig7, 3x, closed, bpr, coherence, aida, scale, query, persist, temporal, memory, repl, plan")
	n := flag.Int("n", 800, "number of articles for corpus-driven artifacts")
	seed := flag.Int64("seed", 42, "world seed")
	jsonOut := flag.String("json", "", "write the artifact's machine-readable metrics (BENCH_<artifact>.json shape) to this file; supported by query, persist, temporal, memory, repl and plan")
	flag.Parse()

	runners := map[string]func(int, int64){
		"fig1": fig1, "fig2": fig2, "fig3": fig3, "fig4": fig4,
		"fig5": fig5, "fig6": fig6, "fig7": fig7,
		"3x": claim3x, "closed": claimClosed, "bpr": claimBPR,
		"coherence": claimCoherence, "aida": claimAIDA, "scale": claimScale,
		"query": claimQuery, "persist": claimPersist, "temporal": claimTemporal,
		"memory": claimMemory, "repl": claimRepl, "plan": claimPlan,
	}
	if *artifact == "all" {
		if *jsonOut != "" {
			fmt.Fprintln(os.Stderr, "-json needs a single metric artifact (query, persist, temporal or memory), not all")
			os.Exit(2)
		}
		for _, name := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
			"3x", "closed", "bpr", "coherence", "aida", "scale", "query", "persist", "temporal", "memory", "repl", "plan"} {
			runners[name](*n, *seed)
		}
		return
	}
	run, ok := runners[*artifact]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown artifact %q\n", *artifact)
		os.Exit(2)
	}
	run(*n, *seed)
	if *jsonOut != "" {
		if err := writeBenchJSON(*jsonOut, *artifact, *n, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "writing bench JSON:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonOut)
	}
}

// benchMetrics collects the named throughput numbers an artifact run
// produced. Every metric is higher-is-better by convention; cmd/benchdiff
// relies on that when gating regressions.
var benchMetrics = map[string]float64{}

func record(name string, value float64) { benchMetrics[name] = value }

// benchJSON is the BENCH_<artifact>.json wire shape shared with
// cmd/benchdiff.
type benchJSON struct {
	Artifact string             `json:"artifact"`
	Metrics  map[string]float64 `json:"metrics"`
	Meta     map[string]any     `json:"meta"`
}

func writeBenchJSON(path, artifact string, n int, seed int64) error {
	if len(benchMetrics) == 0 {
		return fmt.Errorf("artifact %q records no metrics (query, persist and temporal do)", artifact)
	}
	b, err := json.MarshalIndent(benchJSON{
		Artifact: artifact,
		Metrics:  benchMetrics,
		Meta: map[string]any{
			"articles":   n,
			"seed":       seed,
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"gomaxprocs": runtime.GOMAXPROCS(0),
		},
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func header(title string) {
	fmt.Printf("\n================================================================\n%s\n================================================================\n", title)
}

// buildSystem assembles world + pipeline, shared by figure artifacts.
func buildSystem(nArticles int, seed int64) (*nous.Pipeline, *nous.World, []nous.Article) {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = seed
	w := nous.GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loading curated KB:", err)
		os.Exit(1)
	}
	p := nous.NewPipeline(kg, nous.DefaultConfig())
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(nArticles))
	p.IngestAll(arts)
	return p, w, arts
}

// fig1 — the component architecture exercised end to end, with per-stage
// counters standing in for the block diagram.
func fig1(n int, seed int64) {
	header("Figure 1 — NOUS components (end-to-end pipeline run)")
	start := time.Now()
	p, _, _ := buildSystem(n, seed)
	st := p.Stats()
	kgStats := p.KG().Stats()
	fmt.Printf("documents ingested        %8d\n", st.Documents)
	fmt.Printf("sentences processed       %8d\n", st.Sentences)
	fmt.Printf("raw triples (OpenIE)      %8d\n", st.RawTriples)
	fmt.Printf("mapped to ontology        %8d\n", st.Mapped)
	fmt.Printf("accepted into KG          %8d\n", st.Accepted)
	fmt.Printf("rejected by confidence    %8d\n", st.Rejected)
	fmt.Printf("rules learned (dist.sup.) %8d\n", st.RulesLearned)
	fmt.Printf("KG entities               %8d\n", kgStats.Entities)
	fmt.Printf("KG facts (curated+extr.)  %8d = %d + %d\n", kgStats.Facts, kgStats.CuratedFacts, kgStats.ExtractedFacts)
	fmt.Printf("wall time                 %8s\n", time.Since(start).Round(time.Millisecond))
}

// fig2 — fused drone KG: curated (red) and extracted (blue) facts with
// per-fact probability, around DJI and Windermere.
func fig2(n int, seed int64) {
	header("Figure 2 — fused knowledge graph around the drone cast")
	p, _, _ := buildSystem(n, seed)
	for _, name := range []string{"DJI", "Windermere"} {
		fmt.Printf("\n--- %s ---\n", name)
		facts := p.KG().FactsAbout(name)
		if len(facts) > 12 {
			facts = facts[:12]
		}
		for _, f := range facts {
			layer := "extracted(blue)"
			if f.Curated {
				layer = "curated(red)  "
			}
			fmt.Printf("  %s  p=%.2f  %s -[%s]-> %s\n", layer, f.Confidence, f.Subject, f.Predicate, f.Object)
		}
	}
}

// fig3 — dated triples extracted from WSJ-style sentences.
func fig3(_ int, seed int64) {
	header("Figure 3 — dated triples extracted from article sentences")
	p, _, _ := buildSystem(25, seed)
	fmt.Printf("%-12s %-22s %-18s %-22s\n", "date", "subject", "predicate", "object")
	count := 0
	for _, f := range p.KG().AllFacts() {
		if f.Curated || count >= 15 {
			continue
		}
		count++
		fmt.Printf("%-12s %-22s %-18s %-22s\n",
			f.Provenance.Time.Format("2006-01-02"), trunc(f.Subject, 22), f.Predicate, trunc(f.Object, 22))
	}
}

// fig4 — DOT visualization of a drone-themed subgraph.
func fig4(n int, seed int64) {
	header("Figure 4 — drone-themed subgraph (Graphviz DOT)")
	p, _, _ := buildSystem(n/4+50, seed)
	if err := p.KG().ExportDOT(os.Stdout, "DJI", "Windermere", "FAA"); err != nil {
		fmt.Fprintln(os.Stderr, "export:", err)
	}
}

// fig5 — the five query classes, each executed.
func fig5(n int, seed int64) {
	header("Figure 5 — five classes of natural-language-like queries")
	p, _, _ := buildSystem(n, seed)
	p.BuildTopics()
	for _, q := range []string{
		"What is trending?",
		"Tell me about DJI",
		"How is Windermere related to DJI?",
		"What patterns are emerging?",
		"What does DJI manufacture?",
	} {
		fmt.Printf("\nQ: %s\n", q)
		a, err := p.Ask(q)
		if err != nil {
			fmt.Println("  error:", err)
			continue
		}
		fmt.Println(indent(a.Text, "  "))
	}
}

// fig6 — the entity query "Tell me about DJI".
func fig6(n int, seed int64) {
	header(`Figure 6 — entity query: "Tell me about DJI"`)
	p, _, _ := buildSystem(n, seed)
	a, err := p.About("DJI")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Println(a.Text)
}

// fig7 — patterns discovered from updates, with a validating instance.
func fig7(n int, seed int64) {
	header("Figure 7 — patterns discovered from knowledge-graph updates")
	p, _, _ := buildSystem(n, seed)
	entered, left := p.PatternTransitions()
	fmt.Printf("patterns that entered the frequent set: %d (showing top 8)\n", len(entered))
	for i, pat := range entered {
		if i >= 8 {
			break
		}
		fmt.Printf("  support=%-4d %s\n", pat.Support, pat)
	}
	if len(left) > 0 {
		fmt.Printf("patterns that left the frequent set: %d\n", len(left))
	}
	fmt.Println("\nclosed frequent patterns in the current window:")
	for i, pat := range p.Patterns(8) {
		if i >= 8 {
			break
		}
		fmt.Printf("  support=%-4d %s\n", pat.Support, pat)
	}
}

// claim3x — streaming miner vs Arabesque-style re-enumeration per slide.
func claim3x(_ int, seed int64) {
	header("Claim C1 — streaming FGM vs from-scratch re-enumeration (~3x in paper)")
	fmt.Printf("%-8s %-8s %-8s %-12s %-12s %-8s\n", "window", "slide", "minsup", "stream", "rescan", "speedup")
	for _, window := range []int{200, 400, 800} {
		slide := 50
		stream := eventEdges(seed, window+10*slide)
		cfg := fgm.Config{MaxEdges: 3, MinSupport: 3, WindowSize: window}

		// Streaming: per slide, add `slide` edges incrementally.
		m := fgm.NewMiner(cfg)
		for i := 0; i < window; i++ {
			m.Add(stream[i])
		}
		startS := time.Now()
		slides := 0
		for i := window; i+slide <= len(stream); i += slide {
			for j := i; j < i+slide; j++ {
				m.Add(stream[j])
			}
			m.FrequentPatterns()
			slides++
		}
		streamDur := time.Since(startS)

		// Baseline: per slide, re-enumerate the whole window.
		startB := time.Now()
		for i := window; i+slide <= len(stream); i += slide {
			fgm.MineWindow(stream[i+slide-window:i+slide], cfg)
		}
		rescanDur := time.Since(startB)

		speedup := float64(rescanDur) / float64(streamDur)
		fmt.Printf("%-8d %-8d %-8d %-12s %-12s %.1fx\n",
			window, slide, cfg.MinSupport,
			streamDur.Round(time.Millisecond), rescanDur.Round(time.Millisecond), speedup)
	}
	fmt.Println("\nshape target: streaming >= ~3x faster, and the gap grows with window size")
	fmt.Println("both columns run the same embedding kernel (fgm.Miner.Add vs fgm.MineWindow = one AddBatch")
	fmt.Println("into a fresh miner), so the ratio compares incremental upkeep with re-enumeration, not two implementations")
}

// claimClosed — closed patterns and reconstruction on infrequency.
func claimClosed(_ int, seed int64) {
	header("Claim C2 — closed patterns and frequent→infrequent reconstruction")
	cfg := fgm.Config{MaxEdges: 2, MinSupport: 3}
	m := fgm.NewMiner(cfg)
	for i := int64(0); i < 3; i++ {
		m.Add(fgm.Edge{Src: i * 10, Dst: i*10 + 1, SrcLabel: "Company", DstLabel: "Company", Label: "acquired", Time: i})
		m.Add(fgm.Edge{Src: i*10 + 1, Dst: i*10 + 2, SrcLabel: "Company", DstLabel: "Product", Label: "manufactures", Time: i})
	}
	m.Add(fgm.Edge{Src: 200, Dst: 201, SrcLabel: "Company", DstLabel: "Company", Label: "acquired", Time: 6})
	m.Add(fgm.Edge{Src: 300, Dst: 301, SrcLabel: "Company", DstLabel: "Company", Label: "acquired", Time: 6})
	fmt.Println("before eviction, closed patterns:")
	for _, p := range m.ClosedPatterns() {
		fmt.Printf("  support=%-3d %s\n", p.Support, p)
	}
	m.Transitions()
	m.EvictBefore(1)
	_, left := m.Transitions()
	fmt.Println("\nafter evicting the oldest chain instance:")
	for _, p := range left {
		fmt.Printf("  LEFT frequent set: %s\n", p)
	}
	for _, p := range m.ClosedPatterns() {
		fmt.Printf("  closed now: support=%-3d %s\n", p.Support, p)
	}
	fmt.Println("\nshape target: 2-edge chain leaves; its frequent 1-edge sub-pattern is reconstructed as closed")
}

// claimBPR — link prediction AUC vs baselines.
func claimBPR(_ int, seed int64) {
	header("Claim C3 — BPR link-prediction confidence vs baselines (AUC)")
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = seed
	wcfg.Events = 5000 // dense stream: every subject has several positives to learn from
	w := nous.GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}

	// Assemble positives for the three densest predicates.
	byPred := map[string][][2]string{}
	var all []nous.Triple
	for _, t := range w.Curated {
		all = append(all, t)
		byPred[t.Predicate] = append(byPred[t.Predicate], [2]string{t.Subject, t.Object})
	}
	for _, e := range w.Events {
		if e.Rumor {
			continue
		}
		t := nous.Triple{Subject: e.Subject, Predicate: e.Predicate, Object: e.Object, Confidence: 1}
		all = append(all, t)
		byPred[e.Predicate] = append(byPred[e.Predicate], [2]string{e.Subject, e.Object})
	}
	rng := rand.New(rand.NewSource(seed))

	fmt.Printf("%-16s %-6s %-8s %-8s %-8s\n", "predicate", "test", "BPR", "freq", "common-nb")
	preds := []string{"acquired", "partnersWith", "invests"}
	for _, pred := range preds {
		pairs := byPred[pred]
		if len(pairs) < 20 {
			continue
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		cut := len(pairs) * 4 / 5
		test := pairs[cut:]
		testSet := map[[2]string]bool{}
		for _, p := range test {
			testSet[p] = true
		}
		var train []nous.Triple
		for _, t := range all {
			if t.Predicate == pred && testSet[[2]string{t.Subject, t.Object}] {
				continue
			}
			train = append(train, t)
		}
		posSet := map[[2]string]bool{}
		var pool []string
		seen := map[string]bool{}
		for _, p := range pairs {
			posSet[p] = true
			if !seen[p[1]] {
				seen[p[1]] = true
				pool = append(pool, p[1])
			}
		}
		sort.Strings(pool)
		isPos := func(s, o string) bool { return posSet[[2]string{s, o}] }

		lcfg := linkpred.DefaultConfig()
		lcfg.Epochs = 60
		model := linkpred.Train(train, lcfg)
		freq := linkpred.NewFrequencyBaseline(train)
		cn := linkpred.NewCommonNeighborBaseline(kg)
		aucB := linkpred.EvalAUC(model, pred, test, pool, isPos, 20, seed)
		aucF := linkpred.EvalAUC(freq, pred, test, pool, isPos, 20, seed)
		aucC := linkpred.EvalAUC(cn, pred, test, pool, isPos, 20, seed)
		fmt.Printf("%-16s %-6d %-8.3f %-8.3f %-8.3f\n", pred, len(test), aucB, aucF, aucC)
	}
	fmt.Println("\nshape target: BPR column >= baselines; scores usable as fact confidence in (0,1)")
}

// claimCoherence — coherence-ranked path search vs BFS on a planted task.
func claimCoherence(_ int, seed int64) {
	header("Claim C4 — coherence-ranked paths vs shortest-path baseline")
	rng := rand.New(rand.NewSource(seed))
	trials, coherenceWins, bfsHubPicks := 50, 0, 0
	for trial := 0; trial < trials; trial++ {
		g := graph.New()
		topicOf := map[graph.VertexID][]float64{}
		onTopic := func() []float64 { return []float64{0.85 + rng.Float64()*0.1, 0.05} }
		offTopic := func() []float64 { return []float64{0.05, 0.85 + rng.Float64()*0.1} }
		src := g.AddVertex("Company")
		dst := g.AddVertex("Company")
		a := g.AddVertex("Company")
		b := g.AddVertex("Company")
		hub := g.AddVertex("Company")
		topicOf[src], topicOf[dst] = onTopic(), onTopic()
		topicOf[a], topicOf[b] = onTopic(), onTopic()
		topicOf[hub] = offTopic()
		g.AddEdge(src, a, "partnersWith")
		g.AddEdge(a, b, "suppliesTo")
		g.AddEdge(b, dst, "acquired")
		g.AddEdge(src, hub, "invests")
		g.AddEdge(hub, dst, "invests")
		for i := 0; i < 8; i++ {
			v := g.AddVertex("Company")
			topicOf[v] = offTopic()
			g.AddEdge(hub, v, "invests")
		}
		s := pathsearch.New(g, topicOf)
		cp := s.TopK(src, dst, pathsearch.Options{K: 1, MaxDepth: 4})
		bp := s.BFSPaths(src, dst, pathsearch.Options{K: 1, MaxDepth: 4})
		if len(cp) > 0 && len(cp[0].Vertices) == 4 {
			coherenceWins++
		}
		if len(bp) > 0 && containsVertex(bp[0].Vertices, hub) {
			bfsHubPicks++
		}
	}
	fmt.Printf("planted on-topic 3-hop path vs off-topic 2-hop hub shortcut, %d trials\n", trials)
	fmt.Printf("  coherence search picks planted path: %d/%d\n", coherenceWins, trials)
	fmt.Printf("  BFS baseline picks hub shortcut:     %d/%d\n", bfsHubPicks, trials)
	fmt.Println("\nshape target: coherence ~always prefers the explanatory path; BFS ~always takes the hub")
}

// claimAIDA — disambiguation accuracy: KG-neighborhood AIDA variant vs
// popularity prior.
func claimAIDA(n int, seed int64) {
	header("Claim C5 — AIDA-variant disambiguation vs popularity-only baseline")
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = seed
	w := nous.GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	acfg := nous.DefaultArticleConfig(n)
	acfg.AliasRate = 0.9 // force ambiguous mentions
	arts := nous.GenerateArticles(w, acfg)
	linker := disambig.NewLinker(kg, disambig.DefaultConfig())

	total, aidaHit, priorHit := 0, 0, 0
	for _, a := range arts {
		for _, ml := range a.Mentions {
			if len(kg.Candidates(ml.Surface)) < 2 {
				continue // only grade genuinely ambiguous mentions
			}
			total++
			ctx := strings.Fields(strings.ToLower(a.Text))
			if r := linker.LinkOne(disambig.Mention{Surface: ml.Surface, Context: ctx}); r.Entity == ml.Entity {
				aidaHit++
			}
			if r := linker.LinkPriorOnly(ml.Surface); r.Entity == ml.Entity {
				priorHit++
			}
		}
	}
	if total == 0 {
		fmt.Println("no ambiguous mentions generated; increase -n")
		return
	}
	fmt.Printf("ambiguous mentions graded: %d\n", total)
	fmt.Printf("  AIDA variant (context+coherence+prior): %.1f%%\n", 100*float64(aidaHit)/float64(total))
	fmt.Printf("  popularity prior only:                  %.1f%%\n", 100*float64(priorHit)/float64(total))
	fmt.Println("\nshape target: AIDA variant above prior-only")
}

// claimScale — ingest throughput toward the paper's 342,411-article corpus,
// swept over extraction worker-pool sizes to show the parallel scaling of
// the sharded ingestion path.
func claimScale(n int, seed int64) {
	header("Claim C6 — ingest throughput (paper corpus: 342,411 WSJ articles)")
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = seed
	wcfg.Events = 2000
	w := nous.GenerateWorld(wcfg)
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(n))

	maxWorkers := runtime.GOMAXPROCS(0)
	workerSweep := []int{1}
	for wk := 2; wk < maxWorkers; wk *= 2 {
		workerSweep = append(workerSweep, wk)
	}
	if maxWorkers > 1 {
		workerSweep = append(workerSweep, maxWorkers)
	}
	fmt.Printf("%-9s %-10s %-14s %s\n", "workers", "wall", "articles/s", "projected 342,411-article corpus")
	for _, wk := range workerSweep {
		kg, err := w.LoadKG()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		cfg := nous.DefaultConfig()
		cfg.Stream.Workers = wk
		p := nous.NewPipeline(kg, cfg)
		start := time.Now()
		st := p.IngestAll(arts)
		dur := time.Since(start)
		rate := float64(n) / dur.Seconds()
		fmt.Printf("%-9d %-10s %-14.0f %s   (raw %d, accepted %d)\n",
			wk, dur.Round(time.Millisecond), rate,
			(time.Duration(float64(342411)/rate) * time.Second).Round(time.Second),
			st.RawTriples, st.Accepted)
	}
}

// claimQuery — the epoch-versioned read layer: repeated entity-summary
// throughput at an unchanged epoch (cached importance) and with a cold
// importance artifact per query, then mixed-class query throughput during
// concurrent ingest.
func claimQuery(n int, seed int64) {
	header("Claim C7 — epoch-cached query engine: cached vs cold importance")
	p, w, _ := buildSystem(n, seed)
	kg := p.KG()

	// Part 1: entity-summary latency at an unchanged epoch. The cache
	// computes importance once per epoch and serves vector reads thereafter.
	const warmIters = 500
	if _, err := p.About("DJI"); err != nil { // prime the cache
		fmt.Fprintln(os.Stderr, err)
		return
	}
	epochBefore := p.QueryStats().Epoch
	start := time.Now()
	for i := 0; i < warmIters; i++ {
		if _, err := p.About("DJI"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
	}
	cached := time.Since(start) / warmIters

	// A fresh cache per query pays what the first query after a write pays:
	// one view compile and one PageRank kernel run, plus the summary
	// assembly. Both rates are absolute — a ratio of the two would shrink
	// whenever the recompute itself gets faster.
	const coldIters = 200
	id, _ := kg.Entity("DJI")
	start = time.Now()
	for i := 0; i < coldIters; i++ {
		_ = analytics.New(kg).Importance(id)
		if _, err := p.About("DJI"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
	}
	cold := time.Since(start) / coldIters

	fmt.Printf("graph: %d entities, %d facts, epoch %d\n", kg.NumEntities(), kg.NumFacts(), epochBefore)
	fmt.Printf("entity summary, unchanged epoch (cached):     %12s/query\n", cached)
	fmt.Printf("entity summary, cold importance (recompute):  %12s/query\n", cold)
	record("cached_entity_queries_per_sec", 1/cached.Seconds())
	record("cold_importance_queries_per_sec", 1/cold.Seconds())

	// Part 2: mixed-class throughput while the stream keeps mutating the
	// graph — the paper's core scenario, querying during construction.
	extra := nous.GenerateArticles(w, nous.DefaultArticleConfig(n/2+50))
	queries := []string{
		"Tell me about DJI",
		"What is trending?",
		"What does DJI manufacture?",
		"How is Windermere related to DJI?",
		"What patterns are emerging?",
	}
	done := make(chan struct{})
	ingestStart := time.Now()
	go func() {
		defer close(done)
		p.IngestAll(extra)
	}()
	served := 0
	var qerr error
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if _, err := p.Ask(queries[served%len(queries)]); err != nil && qerr == nil {
				qerr = err
			}
			served++
		}
	}
	ingestDur := time.Since(ingestStart)
	st := p.QueryStats()
	fmt.Printf("\nconcurrent serving: %d mixed-class queries during a %s ingest of %d articles (%.0f queries/s)\n",
		served, ingestDur.Round(time.Millisecond), len(extra), float64(served)/ingestDur.Seconds())
	record("concurrent_mixed_queries_per_sec", float64(served)/ingestDur.Seconds())
	fmt.Printf("query cache: epoch=%d hits=%d misses=%d recomputes=%d topics_lag=%d\n",
		st.Epoch, st.Hits, st.Misses, st.Computes, st.TopicsLag)
	if qerr != nil {
		fmt.Println("query error during concurrent ingest:", qerr)
	}
	fmt.Println("\nshape target: a cold importance recompute stays well under a millisecond; queries keep flowing during ingest")
}

// claimPersist — the persistence subsystem: snapshot write/load throughput
// over a corpus-built graph, then WAL append and replay rates over a
// synthetic mutation stream.
func claimPersist(n int, seed int64) {
	header("Claim C8 — durable graph: snapshot write/load throughput, WAL replay rate")
	quiet := persist.Options{DisableAutoCheckpoint: true, FlushInterval: time.Hour}

	// Part 1: snapshot a corpus-shaped graph (the state `nous build
	// -data-dir` checkpoints) and load it back.
	p, _, _ := buildSystem(n, seed)
	g := p.KG().Graph()
	dir, err := os.MkdirTemp("", "nous-persist-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := persist.Open(dir, g, quiet)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	facts := g.NumEdges()
	// Repeat until a steady-state window has elapsed: a single small
	// snapshot is dominated by fsync jitter.
	const minWindow = time.Second
	writes := 0
	start := time.Now()
	for time.Since(start) < minWindow {
		if err := st.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		writes++
	}
	writeDur := time.Since(start) / time.Duration(writes)
	if err := st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	// Checkpoints of an unchanged graph share one epoch and hence one file.
	snapBytes := dirGlobSize(dir, "snap-")

	loads := 0
	var g2 *graph.Graph
	start = time.Now()
	for time.Since(start) < minWindow {
		g2 = graph.New()
		st2, err := persist.Open(dir, g2, quiet)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		st2.Close()
		loads++
	}
	loadDur := time.Since(start) / time.Duration(loads)
	if g2.NumEdges() != facts {
		fmt.Fprintf(os.Stderr, "snapshot round trip lost edges: %d != %d\n", g2.NumEdges(), facts)
		return
	}

	mb := float64(snapBytes) / (1 << 20)
	fmt.Printf("graph: %d vertices, %d facts; snapshot %.2f MiB\n", g.NumVertices(), facts, mb)
	fmt.Printf("snapshot write: %10s  (%8.0f facts/s, %6.1f MiB/s)\n",
		writeDur.Round(time.Millisecond), float64(facts)/writeDur.Seconds(), mb/writeDur.Seconds())
	fmt.Printf("snapshot load:  %10s  (%8.0f facts/s, %6.1f MiB/s)\n",
		loadDur.Round(time.Millisecond), float64(facts)/loadDur.Seconds(), mb/loadDur.Seconds())
	record("snapshot_write_facts_per_sec", float64(facts)/writeDur.Seconds())
	record("snapshot_load_facts_per_sec", float64(facts)/loadDur.Seconds())

	// Part 2: WAL append throughput with group commit, then replay rate.
	// Batched edge writes mirror the ingest path: one WAL record per batch.
	dir2, err := os.MkdirTemp("", "nous-wal-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer os.RemoveAll(dir2)
	g3 := graph.New()
	st3, err := persist.Open(dir2, g3, quiet)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	const vertices, batches, perBatch = 2000, 6000, 12
	start = time.Now()
	ids := make([]graph.VertexID, vertices)
	for i := range ids {
		ids[i] = g3.AddVertexWithProps("Company", map[string]string{"name": fmt.Sprintf("v%05d", i)})
	}
	specs := make([]graph.EdgeSpec, perBatch)
	for b := 0; b < batches; b++ {
		for j := range specs {
			k := b*perBatch + j
			specs[j] = graph.EdgeSpec{
				Src: ids[k%vertices], Dst: ids[(k*7+1)%vertices],
				Label: "acquired", Weight: 0.5, Timestamp: int64(k),
				Props: map[string]string{"source": "bench"},
			}
		}
		if _, err := g3.AddEdges(specs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
	}
	if err := st3.Sync(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	appendDur := time.Since(start)
	walStats := st3.Stats()
	if err := st3.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}

	g4 := graph.New()
	start = time.Now()
	st4, err := persist.Open(dir2, g4, quiet)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	replayDur := time.Since(start)
	replayed := st4.Stats().ReplayedRecords
	st4.Close()

	muts := vertices + batches // one record per vertex, one per batch
	fmt.Printf("\nWAL: %d mutations (%d edges in %d-edge batches), %d records, %.2f MiB\n",
		muts, batches*perBatch, perBatch, walStats.WALRecords, float64(walStats.WALBytes)/(1<<20))
	fmt.Printf("logged append:  %10s  (%8.0f mutations/s, group commit %d KiB)\n",
		appendDur.Round(time.Millisecond), float64(muts)/appendDur.Seconds(),
		persist.DefaultOptions().GroupCommitBytes>>10)
	fmt.Printf("replay:         %10s  (%8.0f records/s, %d records)\n",
		replayDur.Round(time.Millisecond), float64(replayed)/replayDur.Seconds(), replayed)
	record("wal_append_mutations_per_sec", float64(muts)/appendDur.Seconds())
	record("wal_replay_records_per_sec", float64(replayed)/replayDur.Seconds())

	fmt.Println("\nshape target: load >= write throughput; replay comfortably outruns live ingest")
}

// claimTemporal — the temporal query layer: windowed entity summaries and
// path queries at a repeated window (hitting the (epoch, window)-keyed
// PageRank artifact), unwindowed queries alongside for regression context,
// and raw time-index window scans.
func claimTemporal(n int, seed int64) {
	header("Claim C9 — temporal query layer: windowed reads over the dynamic KG")
	p, _, arts := buildSystem(n, seed)
	p.BuildTopics()

	// The query window: the middle half of the article date range — a
	// realistic "what happened in that stretch" slice of the stream.
	lo, hi := arts[0].Date, arts[0].Date
	for _, a := range arts {
		if a.Date.Before(lo) {
			lo = a.Date
		}
		if a.Date.After(hi) {
			hi = a.Date
		}
	}
	span := hi.Sub(lo)
	win := nous.Window{
		Since: lo.Add(span / 4).Unix(),
		Until: lo.Add(3 * span / 4).Unix(),
	}
	st := p.TemporalStats()
	fmt.Printf("graph: %d entities, %d facts; index %d edges spanning %s..%s\n",
		p.KG().NumEntities(), p.KG().NumFacts(), st.Edges,
		time.Unix(st.MinTimestamp, 0).UTC().Format("2006-01-02"),
		time.Unix(st.MaxTimestamp, 0).UTC().Format("2006-01-02"))
	fmt.Printf("query window: %v (%d of %d edges by timestamp)\n",
		win, p.TemporalIndex().Count(win), st.Edges)

	// Sanity: the full-range window returns exactly the unwindowed answer.
	plain, err := p.About("DJI")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	full, err := p.AboutWindow("DJI", nous.Window{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	if plain.Text != full.Text {
		fmt.Fprintln(os.Stderr, "FULL-RANGE MISMATCH: windowed answer diverges from unwindowed")
		return
	}
	fmt.Println("full-range window == unwindowed answer: ok")

	measure := func(label string, iters int, fn func() error) (perSec float64, ok bool) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				fmt.Fprintln(os.Stderr, label+":", err)
				return 0, false
			}
		}
		dur := time.Since(start)
		perSec = float64(iters) / dur.Seconds()
		fmt.Printf("%-44s %12s/query  (%8.0f queries/s)\n", label, (dur / time.Duration(iters)).Round(time.Microsecond), perSec)
		return perSec, true
	}

	// Windowed entity summaries at a repeated window: after the first
	// request the (epoch, window) PageRank artifact is cached, so steady
	// state is the serving cost of a windowed Fig-6 query.
	if _, err := p.AboutWindow("DJI", win); err != nil { // prime the artifact
		fmt.Fprintln(os.Stderr, err)
		return
	}
	rate, ok := measure("windowed entity summary (cached artifact)", 400, func() error {
		_, err := p.AboutWindow("DJI", win)
		return err
	})
	if !ok {
		return
	}
	record("windowed_entity_queries_per_sec", rate)

	if rate, ok = measure("unwindowed entity summary (hot path)", 400, func() error {
		_, err := p.About("DJI")
		return err
	}); !ok {
		return
	}
	record("unwindowed_entity_queries_per_sec", rate)

	if rate, ok = measure("windowed relationship paths", 100, func() error {
		_, err := p.ExplainWindow("Windermere", "DJI", "", 3, win)
		return err
	}); !ok {
		return
	}
	record("windowed_path_queries_per_sec", rate)

	ix := p.TemporalIndex()
	if rate, ok = measure("time-index window scan (EdgesIn)", 2000, func() error {
		if len(ix.EdgesIn(win)) == 0 {
			return fmt.Errorf("empty window scan")
		}
		return nil
	}); !ok {
		return
	}
	record("index_window_scans_per_sec", rate)

	// The planner's temporal workloads: windowed trend backfill (burst
	// scoring across every bucket the window covers, off the index) and
	// whole-stream diff queries (temporal join of two windows).
	if _, err := p.TrendingWindow(win, 10); err != nil { // prime
		fmt.Fprintln(os.Stderr, err)
		return
	}
	if rate, ok = measure("windowed trend backfill (TrendScan)", 100, func() error {
		_, err := p.TrendingWindow(win, 10)
		return err
	}); !ok {
		return
	}
	record("windowed_trend_backfill_per_sec", rate)

	mid := (win.Since + win.Until) / 2
	winA := nous.Window{Since: win.Since, Until: mid}
	winB := nous.Window{Since: mid, Until: win.Until}
	if rate, ok = measure("stream diff query (Diff of two windows)", 100, func() error {
		_, err := p.Diff("", winA, winB)
		return err
	}); !ok {
		return
	}
	record("diff_queries_per_sec", rate)

	// Reverse-chronological backfill into a fresh index: the worst case of
	// the old memmove-per-insert path (every edge lands in front of all
	// prior entries). The lazy per-stripe sort makes this an O(1) append;
	// per-insert cost must stay flat as the import grows, not scale with
	// the entries already indexed.
	reverseRate := func(n int) float64 {
		g := graph.New()
		rix := temporal.Attach(g)
		defer rix.Detach()
		a := g.AddVertex("Company")
		b := g.AddVertex("Company")
		const perBatch = 64
		specs := make([]graph.EdgeSpec, perBatch)
		start := time.Now()
		for done := 0; done < n; done += perBatch {
			for j := range specs {
				specs[j] = graph.EdgeSpec{Src: a, Dst: b, Label: "acquired",
					Weight: 1, Timestamp: int64(n - done - j)}
			}
			if _, err := g.AddEdges(specs); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 0
			}
		}
		// One read pays the deferred per-stripe sort; include it in the cost.
		if got := len(rix.EdgesIn(nous.Window{})); got < n {
			fmt.Fprintf(os.Stderr, "reverse backfill lost edges: %d < %d\n", got, n)
			return 0
		}
		return float64(n) / time.Since(start).Seconds()
	}
	small, large := 20000, 80000
	rSmall := reverseRate(small)
	rLarge := reverseRate(large)
	if rSmall == 0 || rLarge == 0 {
		return
	}
	fmt.Printf("%-44s %8.0f inserts/s at n=%d, %8.0f inserts/s at n=%d (ratio %.2fx)\n",
		"reverse-chronological index backfill", rSmall, small, rLarge, large, rSmall/rLarge)
	record("reverse_backfill_inserts_per_sec", rLarge)

	fmt.Println("\nshape target: windowed summaries within ~2x of unwindowed; scans are microsecond-scale;")
	fmt.Println("reverse backfill throughput stays flat as the import grows (append + lazy sort, not quadratic)")
}

// dirGlobSize sums the sizes of files in dir whose names start with prefix.
func dirGlobSize(dir, prefix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
	}
	return total
}

// eventEdges converts a seeded world's event stream to typed miner edges.
func eventEdges(seed int64, n int) []fgm.Edge {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = seed
	wcfg.Events = n
	w := nous.GenerateWorld(wcfg)
	ids := map[string]int64{}
	idOf := func(name string) int64 {
		if id, ok := ids[name]; ok {
			return id
		}
		id := int64(len(ids))
		ids[name] = id
		return id
	}
	var out []fgm.Edge
	for i, e := range w.Events {
		st, ot := "Any", "Any"
		if ent, ok := w.Entity(e.Subject); ok {
			st = string(ent.Type)
		}
		if ent, ok := w.Entity(e.Object); ok {
			ot = string(ent.Type)
		}
		out = append(out, fgm.Edge{
			Src: idOf(e.Subject), Dst: idOf(e.Object),
			SrcLabel: st, DstLabel: ot, Label: e.Predicate, Time: int64(i),
		})
	}
	return out
}

func containsVertex(vs []graph.VertexID, x graph.VertexID) bool {
	for _, v := range vs {
		if v == x {
			return true
		}
	}
	return false
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
