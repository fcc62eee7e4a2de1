package fgm

import (
	"testing"

	"nous/internal/corpus"
)

// eventEdges renders the first n events of a seeded world of n events as
// typed miner edges, entity identities numbered in order of first sight.
func eventEdges(seed int64, n int) []Edge {
	wcfg := corpus.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Events = n
	w := corpus.Generate(wcfg)
	ids := map[string]int64{}
	idOf := func(name string) int64 {
		if id, ok := ids[name]; ok {
			return id
		}
		id := int64(len(ids))
		ids[name] = id
		return id
	}
	out := make([]Edge, 0, len(w.Events))
	for _, e := range w.Events {
		st, ot := "Any", "Any"
		if ent, ok := w.Entity(e.Subject); ok {
			st = string(ent.Type)
		}
		if ent, ok := w.Entity(e.Object); ok {
			ot = string(ent.Type)
		}
		out = append(out, Edge{
			Src: idOf(e.Subject), Dst: idOf(e.Object),
			SrcLabel: st, DstLabel: ot, Label: e.Predicate,
		})
	}
	return out
}

// slideWork counts the embeddings each side enumerates over `slides` window
// slides of 50 edges: the streaming miner's Add per slide (the newcomers'
// embeddings and the evicted edges' ones), against a from-scratch miner per
// slide over the whole window.
func slideWork(seed int64, window, slides int) (stream, rescan int64) {
	const slide = 50
	edges := eventEdges(seed, window+slides*slide)
	cfg := Config{MaxEdges: 3, MinSupport: 3, WindowSize: window}
	m := NewMiner(cfg)
	for _, e := range edges[:window] {
		m.Add(e)
	}
	for i := window; i+slide <= len(edges); i += slide {
		before := m.EmbeddingsTouched()
		for _, e := range edges[i : i+slide] {
			m.Add(e)
		}
		stream += m.EmbeddingsTouched() - before
		rescan += minerForWindow(edges[i+slide-window:i+slide], cfg).EmbeddingsTouched()
	}
	return stream, rescan
}

// TestClaimC1StreamingWorkBeatsRescan checks the paper's claim C1, that
// incremental mining beats Arabesque-style re-enumeration of every window
// (~3x), as work rather than wall time: embeddings enumerated per slide,
// rescan over stream, on the world's typed event stream with MaxEdges 3 and
// slides of 50 edges.
//
// Measured on seeds 1–10 (rescan/stream):
//
//	window   10 slides    5 slides
//	200      0.69–0.73    0.68–0.74
//	400      1.35–1.41    1.31–1.45
//	800      2.62–2.75    2.59–2.80
//
// So the ~3x holds only near window 800. At window 200 the streaming miner
// touches more embeddings than a rescan: a slide replaces a quarter of the
// window, and the miner un-counts the evicted edges' embeddings as well as
// counting the newcomers', while a rescan counts each embedding of the
// window once. What holds, on
// every seed, is that the ratio rises strictly with the window and is at
// least 2.5 at window 800. The test runs seed 1 over 5 slides (≈ 1.7 s);
// the ratio is per slide, and 10 slides take twice as long.
func TestClaimC1StreamingWorkBeatsRescan(t *testing.T) {
	prev := 0.0
	for _, window := range []int{200, 400, 800} {
		stream, rescan := slideWork(1, window, 5)
		ratio := float64(rescan) / float64(stream)
		t.Logf("window %d: stream %d, rescan %d embeddings (%.2fx)", window, stream, rescan, ratio)
		if ratio <= prev {
			t.Errorf("window %d: rescan/stream %.2f, not above the smaller window's %.2f", window, ratio, prev)
		}
		prev = ratio
	}
	if prev < 2.5 {
		t.Errorf("window 800: rescan/stream %.2f, want >= 2.5", prev)
	}
}
