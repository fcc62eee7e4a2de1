package fgm

// MineWindow is the Arabesque-style baseline: it enumerates every connected
// embedding of up to cfg.MaxEdges edges in the given window from scratch
// and aggregates pattern supports. A streaming system that re-runs this per
// window slide does O(window) work per slide; the incremental Miner does
// O(delta) — that asymmetry is the paper's reported ~3× speedup, which
// TestClaimC1StreamingWorkBeatsRescan counts in embeddings. Both sides run
// the same embedding kernel, so the ratio measures the algorithms, not two
// implementations.
func MineWindow(edges []Edge, cfg Config) []Pattern {
	return minerForWindow(edges, cfg).FrequentPatterns()
}

// minerForWindow loads a whole window into a fresh miner in one batch, which
// counts every embedding once, at its newest edge.
func minerForWindow(edges []Edge, cfg Config) *Miner {
	cfg.WindowSize = 0 // no eviction inside a snapshot
	m := NewMiner(cfg)
	m.AddBatch(edges)
	return m
}
