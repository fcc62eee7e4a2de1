// Insider demonstrates the insider-threat domain from §3.1: enterprise log
// events (file access, logins, email, copies) stream into the dynamic KG,
// and the streaming frequent-graph miner reports the patterns that became
// frequent in the detection window, the last quarter of the stream: the
// paper's "discover trends in streaming data" capability on a security
// workload. The planted exfiltration motif (access → copy to the removable
// drive) is not among them. The miner counts patterns over entity types,
// and random accesses and copies already form access → copy patterns
// thousands of times in the baseline, so the motif is frequent before it
// is planted. The plant shows in the drill-down on the drive instead: its
// recent activity bursts in the detection window, and most of its facts
// are copies into it.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"nous"
	"nous/internal/corpus"
)

func main() {
	world := corpus.GenerateInsiderWorld(11, 30, 18, 3000)
	kg, err := world.LoadKG()
	if err != nil {
		log.Fatal(err)
	}
	cfg := nous.DefaultConfig()
	cfg.Stream.Window = 14 * 24 * time.Hour // two-week detection window
	cfg.Miner.MinSupport = 4
	pipeline := nous.NewPipeline(kg, cfg)

	// Render log records as minimal sentences for the shared pipeline.
	verb := map[string]string{
		"accessed": "accessed", "loggedInto": "logged into",
		"emailed": "emailed", "copiedTo": "copied to",
	}
	var articles []nous.Article
	for i, e := range world.Events {
		v := verb[e.Predicate]
		if v == "" {
			continue
		}
		articles = append(articles, nous.Article{
			ID: fmt.Sprintf("log-%06d", i), Source: "auditd", Date: e.Date,
			Text: fmt.Sprintf("%s %s %s.", e.Subject, v, e.Object),
		})
	}

	// Stream in two phases to show the pattern transition: baseline
	// activity first, then the tail where exfiltration was planted.
	split := len(articles) * 3 / 4
	pipeline.IngestAll(articles[:split])
	pipeline.PatternTransitions() // reset the baseline

	pipeline.IngestAll(articles[split:])
	entered, left := pipeline.PatternTransitions()

	fmt.Printf("events streamed: %d (baseline %d + detection window %d)\n",
		len(articles), split, len(articles)-split)
	fmt.Printf("\n== Patterns that BECAME frequent in the detection window ==\n")
	for _, p := range entered {
		fmt.Printf("  support=%-4d %s\n", p.Support, p)
	}
	if len(left) > 0 {
		fmt.Printf("\n== Patterns that dropped out ==\n")
		for _, p := range left {
			fmt.Printf("  %s\n", p)
		}
	}

	// Drill-down: who is touching the removable-media sink?
	resources := world.EntitiesOfType("Resource")
	usb := resources[len(resources)-1]
	for _, r := range resources {
		if strings.HasPrefix(r, "usb-drive") {
			usb = r
		}
	}
	ans, err := pipeline.About(usb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== %s ==\n%s", usb, ans.Text)
}
