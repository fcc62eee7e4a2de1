// Benchmarks of the code behind the paper's evaluation. The paper (a 3-page
// demo) has no numbered tables; its evaluation content is Figures 1–7 plus
// quantitative claims in the text. The figures' printouts are the Example
// functions of example_test.go, and the claims are seeded tests
// (TestClaimC1StreamingWorkBeatsRescan, TestReconstructionAfterInfrequency,
// TestClaimC3BPRBeatsBaselines, TestClaimC4CoherenceBeatsHubShortcut,
// TestClaimC5AIDABeatsPriorOnly); README's "Paper claims and figures" maps
// each to its test. The benchmarks here time the same paths.
package nous

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nous/internal/analytics"
	"nous/internal/core"
	"nous/internal/corpus"
	"nous/internal/disambig"
	"nous/internal/extract"
	"nous/internal/fgm"
	"nous/internal/graph"
	"nous/internal/linkpred"
	"nous/internal/ner"
	"nous/internal/ontology"
	"nous/internal/pathsearch"
	"nous/internal/temporal"
)

// benchWorld caches a world across benchmarks (generation itself is
// benchmarked separately).
var benchWorld = func() *World {
	cfg := corpus.DefaultConfig()
	cfg.Events = 600
	return corpus.Generate(cfg)
}()

func benchArticles(n int) []Article {
	return corpus.GenerateArticles(benchWorld, corpus.DefaultArticleConfig(n))
}

func newBenchPipeline(b *testing.B) *Pipeline {
	b.Helper()
	kg, err := benchWorld.LoadKG()
	if err != nil {
		b.Fatal(err)
	}
	return NewPipeline(kg, DefaultConfig())
}

// BenchmarkFig1_PipelineEndToEnd drives the full Figure-1 component chain:
// extraction → mapping → disambiguation → confidence → dynamic KG.
func BenchmarkFig1_PipelineEndToEnd(b *testing.B) {
	articles := benchArticles(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := newBenchPipeline(b)
		b.StartTimer()
		p.IngestAll(articles)
	}
}

// BenchmarkFig2_FusedKGConstruction measures fused (curated + extracted)
// KG assembly plus the Figure-2 subgraph export.
func BenchmarkFig2_FusedKGConstruction(b *testing.B) {
	articles := benchArticles(100)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := newBenchPipeline(b)
		b.StartTimer()
		p.IngestAll(articles)
		var sink discardWriter
		if err := p.KG().ExportDOT(&sink, "DJI", "Windermere"); err != nil {
			b.Fatal(err)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFig3_TripleExtraction measures the OpenIE stage alone
// (sentences → dated raw triples).
func BenchmarkFig3_TripleExtraction(b *testing.B) {
	kg, err := benchWorld.LoadKG()
	if err != nil {
		b.Fatal(err)
	}
	rec := ner.NewRecognizer()
	kg.ForEachAlias(func(alias, canonical string, typ ontology.EntityType) {
		rec.AddGazetteer(alias, typ)
	})
	ex := extract.New(rec, kg.Ontology())
	articles := benchArticles(50)
	b.ReportAllocs()
	b.ResetTimer()
	triples := 0
	for i := 0; i < b.N; i++ {
		for _, a := range articles {
			triples += len(ex.Extract(extract.Document{ID: a.ID, Source: a.Source, Date: a.Date, Text: a.Text}))
		}
	}
	b.ReportMetric(float64(triples)/float64(b.N), "triples/op")
}

// BenchmarkFig5_QueryClasses measures each of the five query classes on a
// built KG.
func BenchmarkFig5_QueryClasses(b *testing.B) {
	p := newBenchPipeline(b)
	p.IngestAll(benchArticles(300))
	queries := map[string]string{
		"trending":     "What is trending?",
		"entity":       "Tell me about DJI",
		"relationship": "How is Windermere related to DJI?",
		"pattern":      "What patterns are emerging?",
		"fact":         "What does DJI manufacture?",
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Ask(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6_EntityQuery measures the "Tell me about DJI" summary.
func BenchmarkFig6_EntityQuery(b *testing.B) {
	p := newBenchPipeline(b)
	p.IngestAll(benchArticles(300))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.About("DJI"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_PatternDiscovery measures closed-pattern reporting over
// the live window.
func BenchmarkFig7_PatternDiscovery(b *testing.B) {
	p := newBenchPipeline(b)
	p.IngestAll(benchArticles(300))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Patterns(10)
	}
}

// benchEdges renders the world's events as typed stream edges.
func benchEdges(n int) []fgm.Edge {
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
	for i := 0; len(out) < n; i++ {
		e := benchWorld.Events[i%len(benchWorld.Events)]
		st, ot := "Any", "Any"
		if ent, ok := benchWorld.Entity(e.Subject); ok {
			st = string(ent.Type)
		}
		if ent, ok := benchWorld.Entity(e.Object); ok {
			ot = string(ent.Type)
		}
		out = append(out, fgm.Edge{
			Src: idOf(e.Subject), Dst: idOf(e.Object),
			SrcLabel: st, DstLabel: ot, Label: e.Predicate, Time: int64(i),
		})
	}
	return out
}

// BenchmarkC2_ClosedPatternReporting covers the closed-set computation
// that backs the reconstruction claim.
func BenchmarkC2_ClosedPatternReporting(b *testing.B) {
	m := fgm.NewMiner(fgm.Config{MaxEdges: 3, MinSupport: 3, WindowSize: 600})
	for _, e := range benchEdges(600) {
		m.Add(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClosedPatterns(0)
	}
}

// BenchmarkMinerSeedArticles is an assembly's miner seed over the facts the
// system serves: the default world plus 400 articles, then per op one
// AddBatch of the window's facts into a fresh miner, as NewPipeline does.
func BenchmarkMinerSeedArticles(b *testing.B) {
	w := GenerateWorld(DefaultWorldConfig())
	kg, err := w.LoadKG()
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	NewPipeline(kg, cfg).IngestAll(GenerateArticles(w, DefaultArticleConfig(400)))
	from := kg.Graph().NextEdge() - core.FactID(cfg.Miner.WindowSize)
	var seed []fgm.Edge
	kg.ScanFacts(func(f *Fact) {
		if f.ID >= from {
			seed = append(seed, minerEdge(f))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fgm.NewMiner(cfg.Miner).AddBatch(seed)
	}
	b.ReportMetric(float64(len(seed)), "facts")
}

// linkpredData builds train/test positives for the "acquired" predicate.
func linkpredData() (train []Triple, test [][2]string) {
	var pairs [][2]string
	for _, e := range benchWorld.Events {
		if e.Predicate == "acquired" && !e.Rumor {
			pairs = append(pairs, [2]string{e.Subject, e.Object})
		}
	}
	cut := len(pairs) * 4 / 5
	for _, p := range pairs[:cut] {
		train = append(train, Triple{Subject: p[0], Predicate: "acquired", Object: p[1], Confidence: 1})
	}
	return train, pairs[cut:]
}

// BenchmarkC3_LinkPredictionTrain measures BPR training.
func BenchmarkC3_LinkPredictionTrain(b *testing.B) {
	train, _ := linkpredData()
	cfg := linkpred.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linkpred.Train(train, cfg)
	}
}

// BenchmarkC3_LinkPredictionScore measures per-triple confidence scoring.
func BenchmarkC3_LinkPredictionScore(b *testing.B) {
	train, test := linkpredData()
	m := linkpred.Train(train, linkpred.DefaultConfig())
	if len(test) == 0 {
		b.Skip("no held-out pairs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := test[i%len(test)]
		m.Score(p[0], "acquired", p[1])
	}
}

// pathBenchGraph plants the C4 scenario at a larger scale: an on-topic
// 3-hop path and an off-topic high-degree hub shortcut plus noise.
func pathBenchGraph() (*pathsearch.Searcher, graph.VertexID, graph.VertexID) {
	rng := rand.New(rand.NewSource(21))
	g := graph.New()
	topicOf := map[graph.VertexID][]float64{}
	addV := func(topic []float64) graph.VertexID {
		id := g.AddVertex("Company", "")
		topicOf[id] = topic
		return id
	}
	on := []float64{0.9, 0.1}
	off := []float64{0.1, 0.9}
	src := addV(on)
	dst := addV(on)
	a := addV(on)
	mid := addV(on)
	hub := addV(off)
	mustEdge := func(u, v graph.VertexID) {
		if _, err := g.AddEdge(u, v, "relatedTo"); err != nil {
			panic(err)
		}
	}
	mustEdge(src, a)
	mustEdge(a, mid)
	mustEdge(mid, dst)
	mustEdge(src, hub)
	mustEdge(hub, dst)
	var noise []graph.VertexID
	for i := 0; i < 400; i++ {
		v := addV(off)
		noise = append(noise, v)
		mustEdge(hub, v)
		if len(noise) > 1 && rng.Intn(3) == 0 {
			mustEdge(v, noise[rng.Intn(len(noise)-1)])
		}
	}
	return pathsearch.New(g, func(id graph.VertexID) []float64 { return topicOf[id] }), src, dst
}

// BenchmarkC4_PathSearchCoherence measures coherence-guided top-K search.
func BenchmarkC4_PathSearchCoherence(b *testing.B) {
	s, src, dst := pathBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(src, dst, pathsearch.Options{K: 3, MaxDepth: 4})
	}
}

// BenchmarkC4_PathSearchBFS measures the uninformed baseline.
func BenchmarkC4_PathSearchBFS(b *testing.B) {
	s, src, dst := pathBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BFSPaths(src, dst, pathsearch.Options{K: 3, MaxDepth: 4})
	}
}

// BenchmarkC5_Disambiguation measures joint mention resolution.
func BenchmarkC5_Disambiguation(b *testing.B) {
	kg, err := benchWorld.LoadKG()
	if err != nil {
		b.Fatal(err)
	}
	l := disambig.NewLinker(kg, analytics.New(kg))
	ms := []disambig.Mention{
		{Surface: "Apex", Context: []string{"drone", "inspection", "robotics"}},
		{Surface: "Titan", Context: []string{"solar", "aerospace"}},
		{Surface: "DJI", Context: []string{"drone"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Link(ms)
	}
}

// BenchmarkC6_IngestThroughput measures articles/sec toward the 342,411-
// article WSJ corpus scale.
func BenchmarkC6_IngestThroughput(b *testing.B) {
	articles := benchArticles(400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := newBenchPipeline(b)
		b.StartTimer()
		start := time.Now()
		p.IngestAll(articles)
		b.ReportMetric(float64(len(articles))/time.Since(start).Seconds(), "articles/s")
	}
}

// BenchmarkAblation_LookaheadWidth sweeps the beam width of the coherence
// look-ahead around its default of 32: a wider beam keeps more partial
// paths per depth.
func BenchmarkAblation_LookaheadWidth(b *testing.B) {
	s, src, dst := pathBenchGraph()
	for _, beam := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("beam=%d", beam), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.TopK(src, dst, pathsearch.Options{K: 3, MaxDepth: 4, Beam: beam})
			}
		})
	}
}

// corpusView builds the graph the system benchmark's query workloads serve —
// the ×5 corpus world's curated KB plus 1,000 ingested articles — and
// returns it with the window "2013 onwards" its entity queries draw from.
func corpusView(b *testing.B) (*graph.Graph, temporal.Window) {
	b.Helper()
	wc := DefaultWorldConfig()
	wc.Companies *= 5
	wc.People *= 5
	wc.Products *= 5
	wc.Events *= 5
	w := GenerateWorld(wc)
	kg, err := w.LoadKG()
	if err != nil {
		b.Fatal(err)
	}
	p := NewPipeline(kg, DefaultConfig())
	p.IngestAll(GenerateArticles(w, DefaultArticleConfig(1000)))
	return kg.Graph(), temporal.SinceTime(time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC))
}

// BenchmarkViewCompile is one compile of the corpus graph: what the first
// importance read at a new epoch pays once, whatever the number of windows.
func BenchmarkViewCompile(b *testing.B) {
	g, _ := corpusView(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Compile(g, temporal.AlwaysVisible)
	}
}

// BenchmarkViewPageRank is one windowed importance recompute (20 iterations)
// over the compiled corpus graph: what every windowed-LRU miss pays.
func BenchmarkViewPageRank(b *testing.B) {
	g, win := corpusView(b)
	v := graph.Compile(g, temporal.AlwaysVisible)
	b.ReportAllocs()
	b.ResetTimer()
	var r *graph.Ranks
	for i := 0; i < b.N; i++ {
		r = v.PageRank(0.85, 20, win.ContainsStamp)
	}
	b.ReportMetric(float64(v.NumEdges()), "edges")
	b.ReportMetric(float64(r.Len()), "vertices")
}
