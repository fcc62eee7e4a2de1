// Package analytics is the epoch-versioned read layer between the dynamic
// knowledge graph and its query-time consumers. NOUS's premise is querying
// *while the graph changes*: whole-graph artifacts (PageRank importance, the
// disambiguation popularity prior, per-entity topic vectors) are too
// expensive to recompute per query and too stale to compute once. The cache
// resolves the materialization-vs-recomputation tradeoff by keying every
// artifact on the graph's mutation epoch (see graph.Epoch): a query at an
// unchanged epoch is a lock-cheap map read, the first query after a write
// recomputes, and N concurrent queries at a new epoch trigger exactly one
// recomputation — the rest wait on the in-flight result (singleflight).
//
// Query-path artifacts are exact at their epoch: each is computed from a
// view compiled under the KG's read lock and labelled with that view's
// epoch, so two processes holding the same facts at the same epoch — a warm
// leader and a cold replica — serve the same bytes. Topic vectors are exact
// too, memoized per vertex rather than per epoch (topics.go): a write
// invalidates only the vectors of the two entities it touches. One artifact
// is deliberately not exact: the popularity prior keeps a staleness budget
// (priorLag, measured below). Every whole-graph artifact lives in one memo
// type, ResultMemo.
package analytics

import (
	"sync/atomic"

	"nous/internal/core"
	"nous/internal/graph"
	"nous/internal/temporal"
	"nous/internal/topics"
)

// Stats is a snapshot of cache behaviour for /api/v1/stats and QueryStats.
type Stats struct {
	// Epoch is the graph's current mutation epoch.
	Epoch uint64 `json:"epoch"`
	// Hits counts artifact reads served from a fresh cached value, including
	// reads that waited on another caller's in-flight computation.
	Hits uint64 `json:"hits"`
	// Misses counts reads that found no fresh value (the artifact was never
	// built or the epoch moved) and recomputed it.
	Misses uint64 `json:"misses"`
	// Computes counts actual recomputations (kernel runs and topic-model
	// fits) — with singleflight dedup this can be far below the number of
	// reads under concurrent load.
	Computes uint64 `json:"computes"`
	// WindowedArtifacts is the number of bounded windows whose PageRank is
	// cached (distinct windows seen recently, capped).
	WindowedArtifacts int `json:"windowed_artifacts"`
	// WindowedComputes counts windowed-PageRank recomputations, a subset of
	// Computes.
	WindowedComputes uint64 `json:"windowed_computes"`
}

// maxRanks caps the PageRank vectors cached at once: 8 bounded windows plus
// the unbounded one. Serving workloads repeat a handful of windows ("last
// week", "this year"); LRU keeps those and the unbounded window every entity
// answer reads hot, and anything beyond the cap recomputes.
const maxRanks = 9

// priorLag is the popularity prior's staleness budget in mutations: a prior
// computed within priorLag mutations of the current epoch is served as-is.
// It is the one lag left in this package because the prior is an
// ingest-path heuristic: disambig.Link reads it once per document on the
// serial integrate stage. Its query-path reader is plan.resolve, and only
// for a surface form that is not a canonical entity name. Measured with
// benchmark/ on a 2-core VM, seed 1, five alternating pairs: with no lag
// every document recomputes the prior, ingest_stream falls from 5,887 to
// 3,609 docs/s (median; op_p50 15.9 → 26.7 ms), and the accepted fact set
// changes (disk_bytes_per_fact 210.0008 → 210.0169).
const priorLag = 256

// The PageRank schedule of every importance artifact. The seed's query
// paths used damping 0.85 with 15 iterations (entity summaries) and 20
// (disambiguation prior); the shared artifact uses the stricter 20.
const (
	pageRankDamping = 0.85
	pageRankIters   = 20
)

// one is the key of a memo that holds a single artifact.
type one struct{}

// epochView is a compiled view with the epoch it is an exact cut of.
type epochView struct {
	*graph.View
	epoch uint64
}

// Cache memoizes derived artifacts over one dynamic KG. All methods are
// safe for concurrent use; returned maps are shared snapshots and must be
// treated as read-only by callers.
//
// Every importance artifact is a kernel run over one compiled graph.View,
// memoized per exact epoch: the windows of a query mix, the unwindowed
// PageRank and the popularity prior at one epoch share a single compile, and
// a cached window holds a dense rank vector (8 bytes per vertex), not a map.
type Cache struct {
	kg *core.KG

	view   *ResultMemo[one, epochView]
	ranks  *ResultMemo[temporal.Window, *graph.Ranks] // the unbounded window is temporal.All()
	prior  *ResultMemo[one, map[string]float64]
	topics topicVectors

	hits, misses, computes, windowedComputes atomic.Uint64
}

// New returns a cache over kg with the standard PageRank schedule. It
// subscribes to kg's fact events to invalidate topic vectors.
func New(kg *core.KG) *Cache {
	c := &Cache{
		kg:    kg,
		view:  NewResultMemo[one, epochView](1),
		ranks: NewResultMemo[temporal.Window, *graph.Ranks](maxRanks),
		prior: NewResultMemo[one, map[string]float64](1),
		topics: topicVectors{
			model: NewResultMemo[one, *topics.Model](1),
			slots: make(map[graph.VertexID]*topicSlot),
		},
	}
	kg.Subscribe(c.topics.invalidate)
	return c
}

// Epoch returns the underlying graph's mutation epoch (lock-free).
func (c *Cache) Epoch() uint64 { return c.kg.Graph().Epoch() }

func (c *Cache) account(hit bool) {
	if hit {
		c.hits.Add(1)
		return
	}
	c.misses.Add(1)
	c.computes.Add(1)
}

// compiled returns the view at the current epoch (or a later one) with the
// epoch it is an exact cut of. It is not counted in Stats: it is an input of
// the artifacts, and Computes counts kernel runs.
func (c *Cache) compiled() epochView {
	v, _, _ := c.view.Get(c.Epoch(), one{}, func() (epochView, uint64, error) {
		v, at := c.kg.CompileView()
		return epochView{v, at}, at, nil
	})
	return v
}

// PageRank returns the memoized PageRank vector for the current epoch.
func (c *Cache) PageRank() *graph.Ranks {
	return c.WindowedPageRank(temporal.All())
}

// Importance returns one vertex's PageRank score at the current epoch.
func (c *Cache) Importance(id graph.VertexID) float64 {
	return c.PageRank().At(id)
}

// WindowedPageRank returns the memoized PageRank of the subgraph visible in
// the window (curated edges plus extracted edges whose timestamp lies in
// [Since, Until)) at the current epoch, labelled with the epoch of the view
// it was computed from. The unbounded window is one more key, and every
// spelling of it shares one entry. At the entry cap the least-recently-used
// window is evicted, so a hot window survives churn from one-off windows.
func (c *Cache) WindowedPageRank(w temporal.Window) *graph.Ranks {
	var keep func(ts int64, alwaysVisible bool) bool
	if w.IsAll() {
		w = temporal.All()
	} else {
		keep = w.ContainsStamp
	}
	r, hit, _ := c.ranks.Get(c.Epoch(), w, func() (*graph.Ranks, uint64, error) {
		if keep != nil {
			c.windowedComputes.Add(1)
		}
		v := c.compiled()
		return v.PageRank(pageRankDamping, pageRankIters, keep), v.epoch, nil
	})
	c.account(hit)
	return r
}

// WindowedImportance returns one vertex's PageRank score within the window.
func (c *Cache) WindowedImportance(id graph.VertexID, w temporal.Window) float64 {
	return c.WindowedPageRank(w).At(id)
}

// PopularityPrior returns the disambiguation popularity prior: per entity
// name, PageRank normalized by the maximum rank (so the most central entity
// scores 1), at most priorLag mutations old. The returned map is shared;
// callers must not mutate it.
func (c *Cache) PopularityPrior() map[string]float64 {
	var oldest uint64
	if now := c.Epoch(); now > priorLag {
		oldest = now - priorLag
	}
	v, hit, _ := c.prior.Get(oldest, one{}, func() (map[string]float64, uint64, error) {
		// Rank the view directly rather than through the ranks memo: the
		// prior is recomputed mid-ingest, and that must not evict a query
		// window or count as a query-path kernel run.
		view := c.compiled()
		pr := view.PageRank(pageRankDamping, pageRankIters, nil)
		maxRank := 0.0
		pr.Each(func(_ graph.VertexID, r float64) {
			if r > maxRank {
				maxRank = r
			}
		})
		prior := make(map[string]float64, pr.Len())
		pr.Each(func(id graph.VertexID, r float64) {
			if name, ok := c.kg.EntityName(id); ok {
				if maxRank > 0 {
					prior[name] = r / maxRank
				} else {
					prior[name] = 0
				}
			}
		})
		return prior, view.epoch, nil
	})
	c.account(hit)
	return v
}

// Stats snapshots cache counters. Safe to call concurrently with queries.
func (c *Cache) Stats() Stats {
	st := Stats{
		Epoch:             c.Epoch(),
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Computes:          c.computes.Load(),
		WindowedArtifacts: c.ranks.Stats().Entries,
		WindowedComputes:  c.windowedComputes.Load(),
	}
	if _, ok := c.ranks.Peek(0, temporal.All()); ok {
		st.WindowedArtifacts--
	}
	return st
}
