// Citations demonstrates the citation-analytics domain from §3.1: the same
// pipeline, miner and query layer run unchanged over a bibliography event
// stream (authorship, citation, venue publication).
package main

import (
	"fmt"
	"log"

	"nous"
	"nous/internal/corpus"
)

func main() {
	world := corpus.GenerateCitationWorld(7, 80, 150)
	kg, err := world.LoadKG()
	if err != nil {
		log.Fatal(err)
	}
	pipeline := nous.NewPipeline(kg, nous.DefaultConfig())

	// Bibliography databases arrive as structured event logs; render each
	// event as a minimal sentence so the same extraction stack applies.
	var articles []nous.Article
	for i, e := range world.Events {
		verb := map[string]string{
			"authorOf": "authored", "cites": "cites", "publishedAt": "appeared at",
		}[e.Predicate]
		if verb == "" {
			continue
		}
		articles = append(articles, nous.Article{
			ID: fmt.Sprintf("bib-%05d", i), Source: "dblp", Date: e.Date,
			Text: fmt.Sprintf("%s %s %s.", e.Subject, verb, e.Object),
		})
	}
	stats := pipeline.IngestAll(articles)
	fmt.Printf("ingested %d bibliography records; %d facts accepted\n", stats.Documents, stats.Accepted)

	// Frequent collaboration motifs across the citation graph.
	fmt.Println("\n== Frequent patterns in the citation graph ==")
	for _, p := range pipeline.Patterns(6) {
		fmt.Printf("  support=%-4d %s\n", p.Support, p)
	}

	// An entity query over the first paper the world names.
	papers := world.EntitiesOfType("Paper")
	if len(papers) > 0 {
		ans, err := pipeline.About(papers[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n== %s ==\n%s", papers[0], ans.Text)
	}

	// Explanatory query: how are two authors connected through the
	// literature?
	people := world.EntitiesOfType("Person")
	if len(people) >= 2 {
		ans, err := pipeline.Explain(people[0], people[1], "", 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n== How are %s and %s connected? ==\n%s", people[0], people[1], ans.Text)
	}
}
