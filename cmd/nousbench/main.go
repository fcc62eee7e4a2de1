// Command nousbench regenerates every evaluation artifact of the NOUS
// paper: the seven figures (as text/DOT renderings) and the quantitative
// claims (the ~3× streaming-mining speedup, closed-pattern reconstruction,
// BPR link-prediction quality, coherence-ranked path search, AIDA-variant
// disambiguation accuracy and WSJ-scale ingest throughput). README's "Bench
// harness" section lists the claims that are also seeded tests with their
// measured thresholds (linkpred's TestClaimC3BPRBeatsBaselines, pathsearch's
// TestClaimC4CoherenceBeatsHubShortcut). The repl
// artifact prints WAL-shipping replication numbers, the one subsystem no
// benchmark/ workload drives; system performance is judged by benchmark/.
//
// Usage:
//
//	nousbench -artifact all
//	nousbench -artifact fig6
//	nousbench -artifact 3x
//	nousbench -artifact scale -n 20000
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"nous"
	"nous/internal/disambig"
	"nous/internal/fgm"
	"nous/internal/graph"
	"nous/internal/linkpred"
	"nous/internal/pathsearch"
)

// artifacts lists every artifact in the order -artifact all runs them.
var artifacts = []struct {
	name string
	run  func(n int, seed int64)
}{
	{"fig1", fig1}, {"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4},
	{"fig5", fig5}, {"fig6", fig6}, {"fig7", fig7},
	{"3x", claim3x}, {"closed", claimClosed}, {"bpr", claimBPR},
	{"coherence", claimCoherence}, {"aida", claimAIDA}, {"scale", claimScale},
	{"repl", claimRepl},
}

func main() {
	names := []string{"all"}
	for _, a := range artifacts {
		names = append(names, a.name)
	}
	artifact := flag.String("artifact", "all", "artifact to regenerate: "+strings.Join(names, ", "))
	n := flag.Int("n", 800, "number of articles for corpus-driven artifacts")
	seed := flag.Int64("seed", 42, "world seed")
	flag.Parse()

	ran := false
	for _, a := range artifacts {
		if *artifact == "all" || *artifact == a.name {
			a.run(*n, *seed)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown artifact %q\n", *artifact)
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Printf("\n================================================================\n%s\n================================================================\n", title)
}

// buildSystem assembles world + pipeline, shared by figure artifacts.
func buildSystem(nArticles int, seed int64) *nous.Pipeline {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = seed
	w := nous.GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loading curated KB:", err)
		os.Exit(1)
	}
	p := nous.NewPipeline(kg, nous.DefaultConfig())
	p.IngestAll(nous.GenerateArticles(w, nous.DefaultArticleConfig(nArticles)))
	return p
}

// fig1 — the component architecture exercised end to end, with per-stage
// counters standing in for the block diagram.
func fig1(n int, seed int64) {
	header("Figure 1 — NOUS components (end-to-end pipeline run)")
	start := time.Now()
	p := buildSystem(n, seed)
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
	p := buildSystem(n, seed)
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
	p := buildSystem(25, seed)
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
	p := buildSystem(n/4+50, seed)
	if err := p.KG().ExportDOT(os.Stdout, "DJI", "Windermere", "FAA"); err != nil {
		fmt.Fprintln(os.Stderr, "export:", err)
	}
}

// fig5 — the five query classes, each executed.
func fig5(n int, seed int64) {
	header("Figure 5 — five classes of natural-language-like queries")
	p := buildSystem(n, seed)
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
	p := buildSystem(n, seed)
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
	p := buildSystem(n, seed)
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
