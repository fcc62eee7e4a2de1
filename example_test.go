package nous_test

import (
	"fmt"
	"strings"

	"nous"
)

// The paper's figures, regenerated on the seeded drone world (seed 42, 800
// articles) as text. Each Example builds its own pipeline. Figure 4, the
// DOT rendering of a drone subgraph, is TestExportDOTColors.

// figurePipeline assembles the seed-42 world's curated KB and ingests n of
// its articles.
func figurePipeline(n int) *nous.Pipeline {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = 42
	w := nous.GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		panic(err)
	}
	p := nous.NewPipeline(kg, nous.DefaultConfig())
	p.IngestAll(nous.GenerateArticles(w, nous.DefaultArticleConfig(n)))
	return p
}

// Figure 1: the component architecture run end to end, with per-stage
// counters standing in for the block diagram.
func Example_figure1() {
	p := figurePipeline(800)
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

	// Output:
	// documents ingested             800
	// sentences processed           3163
	// raw triples (OpenIE)          2145
	// mapped to ontology             898
	// accepted into KG               395
	// rejected by confidence           0
	// rules learned (dist.sup.)        2
	// KG entities                    191
	// KG facts (curated+extr.)       713 = 318 + 395
}

// Figure 2: the fused KG around DJI and Windermere, curated (red) and
// extracted (blue) facts with their probabilities.
func Example_figure2() {
	p := figurePipeline(800)
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

	// Output:
	// --- DJI ---
	//   curated(red)    p=1.00  Ken Brown -[ceoOf]-> DJI
	//   curated(red)    p=1.00  DJI -[foundedBy]-> Ruth Johnson
	//   curated(red)    p=1.00  DJI -[manufactures]-> Spark 3
	//   curated(red)    p=1.00  DJI -[develops]-> Aerial Drone Imaging
	//   curated(red)    p=1.00  DJI -[competesWith]-> Windermere
	//   curated(red)    p=1.00  DJI -[headquarteredIn]-> Shenzhen
	//   curated(red)    p=1.00  DJI -[manufactures]-> Phantom 3
	//   extracted(blue)  p=0.70  Anna Wang -[worksFor]-> DJI
	//   extracted(blue)  p=0.70  DJI -[deploys]-> Comet 8
	//   extracted(blue)  p=0.70  Yuneec -[partnersWith]-> DJI
	//   extracted(blue)  p=0.70  DJI -[acquired]-> Orbitware Systems
	//   extracted(blue)  p=0.70  DJI -[invests]-> Skylift Dynamics
	//
	// --- Windermere ---
	//   curated(red)    p=1.00  DJI -[competesWith]-> Windermere
	//   curated(red)    p=1.00  Windermere -[headquarteredIn]-> Lyon
	//   curated(red)    p=1.00  Igor Costa -[ceoOf]-> Windermere
	//   curated(red)    p=1.00  Windermere -[foundedBy]-> Paul Novak
	//   curated(red)    p=1.00  Windermere -[manufactures]-> Osprey 3
	//   curated(red)    p=1.00  Windermere -[manufactures]-> Condor 1
	//   curated(red)    p=1.00  Windermere -[develops]-> Delivery Drones
	//   curated(red)    p=1.00  Quadworks Robotics -[competesWith]-> Windermere
	//   extracted(blue)  p=0.70  Novaflight Robotics -[acquired]-> Windermere
	//   extracted(blue)  p=0.70  Windermere -[deploys]-> Falcon 9
	//   extracted(blue)  p=0.70  Wei Patel -[worksFor]-> Windermere
	//   extracted(blue)  p=0.65  Windermere -[acquired]-> Nimbustech Industries
}

// Figure 3: dated triples extracted from 25 articles' sentences.
func Example_figure3() {
	p := figurePipeline(25)
	fmt.Printf("%-12s %-22s %-18s %s\n", "date", "subject", "predicate", "object")
	count := 0
	for _, f := range p.KG().AllFacts() {
		if f.Curated || count >= 15 {
			continue
		}
		count++
		fmt.Printf("%-12s %-22s %-18s %s\n",
			f.Provenance.Time.Format("2006-01-02"), trunc(f.Subject, 22), f.Predicate, trunc(f.Object, 22))
	}

	// Output:
	// date         subject                predicate          object
	// 2010-01-02   Lumanet Labs           deploys            Osprey 1
	// 2010-01-05   Yuneec                 acquired           3D Robotics
	// 2010-01-06   Quadair Systems        acquired           Skyics Dynamics
	// 2010-01-06   Quadair Systems        deploys            Pulse 3
	// 2010-01-07   FAA                    approves           Meteor 5
	// 2010-01-13   Swiftworks Technologi… partnersWith       Titan Aerospace
	// 2010-01-20   FAA                    approves           Heron 4
	// 2010-01-22   FAA                    bans               Heron 8
	// 2010-02-11   Jane Patel             worksFor           com
	// 2010-02-17   FAA                    approves           Typhoon H
	// 2010-02-23   Atlasair Dynamics      acquired           Orbitware Systems
	// 2010-02-27   FAA                    approves           Spark 3
	// 2010-04-14   Swiftworks Technologi… invests            3D Robotics
	// 2010-04-16   Novaflight Robotics    acquired           Windermere
	// 2010-04-16   Novaflight Robotics    partnersWith       Vectordyne Analytics
}

// Figure 5: the five classes of natural-language-like queries, each asked.
func Example_figure5() {
	p := figurePipeline(800)
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

	// Output:
	// Q: What is trending?
	//   Trending now:
	//      1. Skydyne Ventures               entity    burst=2.0x (3 mentions, baseline 1.0)
	//
	// Q: Tell me about DJI
	//   DJI (Company)  importance=0.0115
	//     recent activity: [0 0 0 0 1 0 0 0]
	//     Ken Brown -[ceoOf]-> DJI  (p=1.00, curated, src=curated-kb)
	//     DJI -[foundedBy]-> Ruth Johnson  (p=1.00, curated, src=curated-kb)
	//     DJI -[manufactures]-> Spark 3  (p=1.00, curated, src=curated-kb)
	//     DJI -[develops]-> Aerial Drone Imaging  (p=1.00, curated, src=curated-kb)
	//     DJI -[competesWith]-> Windermere  (p=1.00, curated, src=curated-kb)
	//     DJI -[headquarteredIn]-> Shenzhen  (p=1.00, curated, src=curated-kb)
	//     DJI -[manufactures]-> Phantom 3  (p=1.00, curated, src=curated-kb)
	//     Anna Wang -[worksFor]-> DJI  (p=0.70, extracted, src=wsj)
	//     DJI -[deploys]-> Comet 8  (p=0.70, extracted, src=wsj)
	//     Yuneec -[partnersWith]-> DJI  (p=0.70, extracted, src=wsj)
	//
	// Q: How is Windermere related to DJI?
	//   Paths from Windermere to DJI:
	//     coherence=0.0862: Windermere -[acquired]-> Nimbustech Industries ; Nimbustech Industries -[invests]-> Parrot ; Parrot -[partnersWith]-> Quadlift Ventures ; Quadlift Ventures -[invests]-> DJI
	//     coherence=0.0954: Windermere -[develops]-> Delivery Drones ; Delivery Drones <-[develops]- Amazon ; Amazon -[partnersWith]-> Quadlift Ventures ; Quadlift Ventures -[invests]-> DJI
	//     coherence=0.0974: Windermere -[partnersWith]-> Kestrelworks Technologies ; Kestrelworks Technologies -[competesWith]-> Aeroics Aerial ; Aeroics Aerial <-[invests]- Novascan Technologies ; Novascan Technologies -[invests]-> DJI
	//
	// Q: What patterns are emerging?
	//   Closed frequent patterns in the current window:
	//     support=2926 (Agency a)-[approves]->(Product b); (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d)
	//     support=2310 (Agency a)-[approves]->(Product b); (Agency a)-[bans]->(Product c); (Agency a)-[bans]->(Product d)
	//     support=1385 (Company a)-[manufactures]->(Product c); (Company a)-[manufactures]->(Product d); (Company b)-[manufactures]->(Product c)
	//     support=1311 (Agency a)-[approves]->(Product c); (Agency a)-[approves]->(Product d); (Company b)-[manufactures]->(Product c)
	//     support=1263 (Company a)-[manufactures]->(Product c); (Company a)-[develops]->(Technology d); (Company b)-[develops]->(Technology d)
	//     support=1140 (Agency a)-[approves]->(Product b); (Agency a)-[approves]->(Product c); (Agency a)-[approves]->(Product d)
	//     support=1097 (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product d)
	//     support=1081 (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product c)
	//     support=840  (Agency a)-[bans]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product c)
	//     support=665  (Company a)-[acquired]->(Company b); (Company b)-[manufactures]->(Product d); (Company c)-[manufactures]->(Product d)
	//
	// Q: What does DJI manufacture?
	//   DJI manufactures:
	//     Phantom 3 (p=1.00)
	//     Spark 3 (p=1.00)
}

// Figure 6: the entity query "Tell me about DJI".
func Example_figure6() {
	p := figurePipeline(800)
	a, err := p.About("DJI")
	if err != nil {
		panic(err)
	}
	fmt.Println(a.Text)

	// Output:
	// DJI (Company)  importance=0.0115
	//   recent activity: [0 0 0 0 1 0 0 0]
	//   Ken Brown -[ceoOf]-> DJI  (p=1.00, curated, src=curated-kb)
	//   DJI -[foundedBy]-> Ruth Johnson  (p=1.00, curated, src=curated-kb)
	//   DJI -[manufactures]-> Spark 3  (p=1.00, curated, src=curated-kb)
	//   DJI -[develops]-> Aerial Drone Imaging  (p=1.00, curated, src=curated-kb)
	//   DJI -[competesWith]-> Windermere  (p=1.00, curated, src=curated-kb)
	//   DJI -[headquarteredIn]-> Shenzhen  (p=1.00, curated, src=curated-kb)
	//   DJI -[manufactures]-> Phantom 3  (p=1.00, curated, src=curated-kb)
	//   Anna Wang -[worksFor]-> DJI  (p=0.70, extracted, src=wsj)
	//   DJI -[deploys]-> Comet 8  (p=0.70, extracted, src=wsj)
	//   Yuneec -[partnersWith]-> DJI  (p=0.70, extracted, src=wsj)
}

// Figure 7: patterns discovered from the KG's updates.
func Example_figure7() {
	p := figurePipeline(800)
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

	// Output:
	// patterns that entered the frequent set: 2420 (showing top 8)
	//   support=2926 (Agency a)-[approves]->(Product b); (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d)
	//   support=2310 (Agency a)-[approves]->(Product b); (Agency a)-[bans]->(Product c); (Agency a)-[bans]->(Product d)
	//   support=1385 (Company a)-[manufactures]->(Product c); (Company a)-[manufactures]->(Product d); (Company b)-[manufactures]->(Product c)
	//   support=1311 (Agency a)-[approves]->(Product c); (Agency a)-[approves]->(Product d); (Company b)-[manufactures]->(Product c)
	//   support=1263 (Company a)-[manufactures]->(Product c); (Company a)-[develops]->(Technology d); (Company b)-[develops]->(Technology d)
	//   support=1140 (Agency a)-[approves]->(Product b); (Agency a)-[approves]->(Product c); (Agency a)-[approves]->(Product d)
	//   support=1097 (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product d)
	//   support=1081 (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product c)
	//
	// closed frequent patterns in the current window:
	//   support=2926 (Agency a)-[approves]->(Product b); (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d)
	//   support=2310 (Agency a)-[approves]->(Product b); (Agency a)-[bans]->(Product c); (Agency a)-[bans]->(Product d)
	//   support=1385 (Company a)-[manufactures]->(Product c); (Company a)-[manufactures]->(Product d); (Company b)-[manufactures]->(Product c)
	//   support=1311 (Agency a)-[approves]->(Product c); (Agency a)-[approves]->(Product d); (Company b)-[manufactures]->(Product c)
	//   support=1263 (Company a)-[manufactures]->(Product c); (Company a)-[develops]->(Technology d); (Company b)-[develops]->(Technology d)
	//   support=1140 (Agency a)-[approves]->(Product b); (Agency a)-[approves]->(Product c); (Agency a)-[approves]->(Product d)
	//   support=1097 (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product d)
	//   support=1081 (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product c)
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
