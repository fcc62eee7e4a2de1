package pathsearch

import (
	"math/rand"
	"testing"

	"nous/internal/graph"
)

// plantedTrials runs the paper's claim C4 task for one seed: each trial
// plants an on-topic 3-hop path src→a→b→dst beside an off-topic 2-hop
// shortcut src→hub→dst whose hub carries eight off-topic spokes. It returns
// how often coherence search ranks the planted path first and how often the
// BFS baseline takes the hub.
func plantedTrials(seed int64, trials int) (coherenceWins, bfsHubPicks int) {
	rng := rand.New(rand.NewSource(seed))
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
		mustEdge(g, src, a, "partnersWith")
		mustEdge(g, a, b, "suppliesTo")
		mustEdge(g, b, dst, "acquired")
		mustEdge(g, src, hub, "invests")
		mustEdge(g, hub, dst, "invests")
		for i := 0; i < 8; i++ {
			v := g.AddVertex("Company")
			topicOf[v] = offTopic()
			mustEdge(g, hub, v, "invests")
		}
		s := New(g, mapTopics(topicOf))
		cp := s.TopK(src, dst, Options{K: 1, MaxDepth: 4})
		bp := s.BFSPaths(src, dst, Options{K: 1, MaxDepth: 4})
		if len(cp) > 0 && len(cp[0].Vertices) == 4 {
			coherenceWins++
		}
		if len(bp) > 0 && containsVert(bp[0].Vertices, hub) {
			bfsHubPicks++
		}
	}
	return coherenceWins, bfsHubPicks
}

// TestClaimC4CoherenceBeatsHubShortcut pins the paper's claim C4: ranking by
// topic coherence recovers the explanatory path that shortest-path search
// misses. Measured on seeds 1–10, 50 trials each: coherence search picks the
// planted path in 50/50 trials and BFS takes the hub shortcut in 50/50, on
// every seed. The test demands exactly that.
func TestClaimC4CoherenceBeatsHubShortcut(t *testing.T) {
	const trials = 50
	for seed := int64(1); seed <= 10; seed++ {
		c, b := plantedTrials(seed, trials)
		if c != trials || b != trials {
			t.Errorf("seed %d: coherence picks the planted path %d/%d, BFS takes the hub %d/%d; want %d/%d for both",
				seed, c, trials, b, trials, trials, trials)
		}
	}
}
