// Dronewatch reproduces the paper's motivating use case (§1.2): an analyst
// tracks the emerging civilian-drone industry from a news stream. The
// example shows the three analyst workflows the paper describes — spotting
// acquisition targets, explaining why a non-military company (Windermere)
// employs drones, and checking a hypothesis with a plausibility score —
// plus the Figure 2 style fused-subgraph export.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"nous"
)

func main() {
	world := nous.GenerateWorld(nous.DefaultWorldConfig())
	kg, err := world.LoadKG()
	if err != nil {
		log.Fatal(err)
	}
	cfg := nous.DefaultConfig()
	// The analyst tracks a rolling one-year window of news.
	cfg.Stream.Window = 365 * 24 * time.Hour
	pipeline := nous.NewPipeline(kg, cfg)
	pipeline.IngestAll(nous.GenerateArticles(world, nous.DefaultArticleConfig(800)))

	// Workflow 1 — the finance analyst: who is being acquired, what is
	// bursting this window?
	fmt.Println("== What is moving in the drone market? ==")
	for _, t := range pipeline.Trending(8) {
		fmt.Printf("  %-28s %-9s burst=%.1fx (%d mentions)\n", t.Name, t.Kind, t.Score, t.Current)
	}
	ans, err := pipeline.Ask("Who acquired Parrot?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== Acquisition check ==\n%s", ans.Text)

	// Workflow 2 — the security analyst: why would a real-estate firm
	// employ drones? Explanatory path query (the paper's Windermere
	// example).
	fmt.Println("\n== Why is Windermere involved with drones? ==")
	ans, err = pipeline.Explain("Windermere", "DJI", "", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ans.Text)

	// Workflow 3 — hypothesis scoring: is this startup an acquisition
	// target? Link prediction gives a probability from the prior KG state.
	fmt.Println("\n== Hypothesis plausibility (BPR link prediction) ==")
	for _, candidate := range []string{"Parrot", "Yuneec", "3D Robotics"} {
		score := pipeline.Score("Amazon", "acquired", candidate)
		fmt.Printf("  P(Amazon acquired %s) ≈ %.2f\n", candidate, score)
	}

	// Figure 2: export the fused subgraph around the drone cast. Curated
	// facts render red, extracted facts blue with their confidence.
	f, err := os.Create("dronewatch.dot")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := pipeline.KG().ExportDOT(f, "DJI", "Windermere", "FAA"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote dronewatch.dot (render with: dot -Tpng dronewatch.dot)")
}
