// Quickstart: build a dynamic knowledge graph from a curated KB plus a
// stream of news articles, then ask one question from each of the five
// query classes.
package main

import (
	"fmt"
	"log"

	"nous"
)

func main() {
	// 1. A world = curated KB (the YAGO2 stand-in) + hidden event stream.
	world := nous.GenerateWorld(nous.DefaultWorldConfig())
	kg, err := world.LoadKG()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("curated KB: %d entities, %d facts\n", kg.NumEntities(), kg.NumFacts())

	// 2. Assemble the pipeline and ingest 500 WSJ-style articles.
	pipeline := nous.NewPipeline(kg, nous.DefaultConfig())
	articles := nous.GenerateArticles(world, nous.DefaultArticleConfig(500))
	stats := pipeline.IngestAll(articles)
	fmt.Printf("ingested %d articles: %d raw triples, %d facts accepted, %d rejected\n",
		stats.Documents, stats.RawTriples, stats.Accepted, stats.Rejected)

	// 3. One question per query class. Relationship answers rank paths by
	// topic coherence; the topic model is fitted on the first such question.
	for _, q := range []string{
		"What is trending?",
		"Tell me about DJI",
		"How is Windermere related to DJI?",
		"What patterns are emerging?",
		"Did Amazon acquire Parrot?",
	} {
		answer, err := pipeline.Ask(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nQ: %s\n%s", q, answer.Text)
	}
}
