package plan

import (
	"nous/internal/core"
	"nous/internal/temporal"
)

// Cardinality is the planner's window into the storage layer's statistics:
// cheap counts the optimizer can afford to consult per query. Every method
// is O(shards) or O(histogram buckets) — never a scan. Estimates may return
// -1 ("unknown") when the backing structure is absent; the optimizer then
// leaves the corresponding decision alone.
type Cardinality interface {
	// TotalFacts is the number of live edges in the graph.
	TotalFacts() float64
	// PredicateFacts is the number of live edges carrying the predicate.
	PredicateFacts(predicate string) float64
	// EntityFacts is the degree of the named entity, or -1 when the exact
	// name is unknown (alias resolution is an execution-time concern).
	EntityFacts(entity string) float64
	// WindowFacts estimates the dated facts inside w from the temporal
	// index's time-bucket histogram, or -1 without an index. An answer of
	// exactly 0 is a proof: no dated fact lies in w.
	WindowFacts(w temporal.Window) float64
	// TrendBucketSeconds is the trend detector's bucket width, or 0 when
	// unknown. The TrendScan skip rewrite needs it to expand a window to
	// bucket granularity before asking WindowFacts for an emptiness proof.
	TrendBucketSeconds() int64
}

// GraphStats sources cardinalities from the live graph core: the graph's
// per-stripe edge and label counters, each read under one acquisition of the
// graph's read lock, and the temporal index's selectivity histogram.
type GraphStats struct {
	KG     *core.KG
	TIndex *temporal.Index
	// TrendBucketSec mirrors the trend detector's configured bucket width.
	TrendBucketSec int64
}

func (g *GraphStats) TotalFacts() float64 {
	if g.KG == nil {
		return -1
	}
	return float64(g.KG.Graph().NumEdges())
}

func (g *GraphStats) PredicateFacts(predicate string) float64 {
	if g.KG == nil {
		return -1
	}
	return float64(g.KG.Graph().EdgesWithLabel(predicate))
}

func (g *GraphStats) EntityFacts(entity string) float64 {
	if g.KG == nil || entity == "" {
		return -1
	}
	id, ok := g.KG.Entity(entity)
	if !ok {
		return -1
	}
	return float64(g.KG.Graph().Degree(id))
}

func (g *GraphStats) WindowFacts(w temporal.Window) float64 {
	if g.TIndex == nil {
		return -1
	}
	return g.TIndex.EstimateIn(w)
}

func (g *GraphStats) TrendBucketSeconds() int64 { return g.TrendBucketSec }

// minEst combines two possibly-unknown estimates by the smaller; unknown
// sides are ignored, and two unknowns stay unknown.
func minEst(a, b float64) float64 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case b < a:
		return b
	}
	return a
}

// windowFraction scales a whole-graph estimate n by the fraction of the
// dated stream inside w. Curated facts pass every window, so this is a
// heuristic, not a bound; unknown inputs pass through unscaled.
func windowFraction(n float64, w temporal.Window, card Cardinality) float64 {
	if n < 0 || !w.Bounded() {
		return n
	}
	in := card.WindowFacts(w)
	//nouslint:allow windowthread -- the unbounded probe is the selectivity denominator (whole-stream count), not a dropped caller window
	all := card.WindowFacts(temporal.All())
	if in < 0 || all <= 0 {
		return n
	}
	sel := in / all
	if sel > 1 {
		sel = 1
	}
	return n * sel
}

// estimateScan estimates one leaf scan's output rows under the effective
// (pushed-down) window w.
func estimateScan(t *Scan, w temporal.Window, card Cardinality) float64 {
	switch t.Source {
	case SourceFactsAbout:
		return windowFraction(card.EntityFacts(t.Subject), w, card)
	case SourceObjects:
		return windowFraction(minEst(card.EntityFacts(t.Subject), card.PredicateFacts(t.Predicate)), w, card)
	case SourceSubjects:
		return windowFraction(minEst(card.EntityFacts(t.Object), card.PredicateFacts(t.Predicate)), w, card)
	case SourceFactCheck:
		// A membership probe emits at most the probed triple (plus its
		// evidence pool, bounded by the subject's degree).
		return 1
	case SourcePatterns:
		return -1 // miner state is not graph state; no statistics
	case SourceStream:
		return card.WindowFacts(w)
	}
	return -1
}

// estimateNode walks the tree bottom-up, threading the window exactly the
// way the executor's eval does (enclosing WindowFilters intersect down to
// the leaves), and records every node's estimated output rows in est.
// Unknown estimates are recorded as -1 and propagate upward.
func estimateNode(n Node, w temporal.Window, card Cardinality, est map[Node]float64) float64 {
	var rows float64
	switch t := n.(type) {
	case *WindowFilter:
		rows = estimateNode(t.Input, t.Window.Intersect(w), card, est)
	case *Scan:
		rows = estimateScan(t, w, card)
	case *Rank:
		rows = estimateNode(t.Input, w, card, est)
		if t.K > 0 && rows > float64(t.K) {
			rows = float64(t.K)
		}
	case *Summarize:
		rows = estimateNode(t.Input, w, card, est)
	case *Predict:
		rows = estimateNode(t.Input, w, card, est)
	case *PathExplain:
		rows = float64(t.K)
	case *TrendScan:
		if t.Backfill && t.Window.Bounded() {
			// For a backfill scan the cost driver is the dated facts it
			// must bucket and score, not the trend count (Rank bounds
			// that); estimate the former.
			rows = card.WindowFacts(t.Window)
		} else {
			rows = -1 // live detector state; no graph-side statistics
		}
	case *Diff:
		// Each side carries its own WindowFilter; the enclosing window does
		// not apply across a Diff (mirrors eval, which resets the window for
		// the two sides).
		//nouslint:allow windowthread -- diff sides scope themselves; the enclosing window deliberately does not thread through
		ra := estimateNode(t.A, temporal.All(), card, est)
		//nouslint:allow windowthread -- diff sides scope themselves; the enclosing window deliberately does not thread through
		rb := estimateNode(t.B, temporal.All(), card, est)
		if ra < 0 || rb < 0 {
			rows = -1
		} else {
			rows = ra + rb // upper bound on added+removed
		}
	default:
		rows = -1
	}
	if rows < 0 {
		rows = -1
	}
	est[n] = rows
	return rows
}
