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
package analytics

import (
	"container/list"
	"sync"
	"sync/atomic"

	"nous/internal/core"
	"nous/internal/graph"
	"nous/internal/temporal"
)

// Stats is a snapshot of cache behaviour for /api/stats and QueryStats.
type Stats struct {
	// Epoch is the graph's current mutation epoch.
	Epoch uint64 `json:"epoch"`
	// Hits counts artifact reads served from a fresh cached value.
	Hits uint64 `json:"hits"`
	// Misses counts reads that found no fresh value (the artifact was never
	// built or the epoch moved). Coalesced waiters count as misses too.
	Misses uint64 `json:"misses"`
	// Computes counts actual recomputations — with singleflight dedup this
	// can be far below Misses under concurrent load.
	Computes uint64 `json:"computes"`
	// TopicsEpoch is the epoch at which topic vectors were last built (0
	// when never built).
	TopicsEpoch uint64 `json:"topics_epoch"`
	// TopicsLag is Epoch - TopicsEpoch: how many mutations the topic model
	// is behind the live graph.
	TopicsLag uint64 `json:"topics_lag"`
	// WindowedArtifacts is the number of live windowed-PageRank cache
	// entries (distinct windows seen recently, capped).
	WindowedArtifacts int `json:"windowed_artifacts"`
	// WindowedComputes counts windowed-PageRank recomputations, a subset of
	// Computes.
	WindowedComputes uint64 `json:"windowed_computes"`
}

// memo is one epoch-keyed artifact with singleflight recomputation.
type memo[T any] struct {
	mu     sync.Mutex
	gen    uint64 // bumped by invalidate; an in-flight compute started under an older gen must not store
	epoch  uint64
	valid  bool
	value  T
	flight chan struct{} // non-nil while one goroutine computes
}

// get returns the artifact for epoch now, computing it at most once per
// epoch change no matter how many goroutines ask concurrently. A cached
// value within maxLag mutations of now counts as fresh, so heavy write
// phases amortize recomputation instead of thrashing. hit reports whether a
// cached value was served; computed reports whether this call ran compute
// itself (vs waiting on another goroutine's flight).
func (m *memo[T]) get(now, maxLag uint64, compute func() T) (v T, hit, computed bool) {
	m.mu.Lock()
	for {
		// m.epoch > now happens when another flight stored a newer value
		// while we waited — newer than requested is always fresh enough.
		if m.valid && (m.epoch >= now || now-m.epoch <= maxLag) {
			v = m.value
			m.mu.Unlock()
			return v, true, false
		}
		if m.flight == nil {
			break
		}
		// Someone is already computing; wait and re-check — their result
		// may be for our epoch, or the epoch may have moved again.
		ch := m.flight
		m.mu.Unlock()
		<-ch
		m.mu.Lock()
	}
	ch := make(chan struct{})
	m.flight = ch
	startGen := m.gen
	m.mu.Unlock()

	ok := false
	defer func() {
		// Release waiters even if compute panicked. Store only on success
		// and only if no invalidate() landed while we computed — otherwise
		// a forced refresh (RefreshTopics/RefreshPrior) would be silently
		// satisfied by the stale in-flight build; the waiter re-checks,
		// finds nothing cached, and recomputes fresh.
		m.mu.Lock()
		if ok && m.gen == startGen {
			m.value = v
			m.epoch = now
			m.valid = true
		}
		m.flight = nil
		close(ch)
		m.mu.Unlock()
	}()
	v = compute()
	ok = true
	return v, false, true
}

// peek returns the cached value regardless of freshness.
func (m *memo[T]) peek() (v T, epoch uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.value, m.epoch, m.valid
}

// invalidate drops the cached value so the next get recomputes even at an
// unchanged epoch, and prevents any compute already in flight from storing
// its (pre-invalidation) result.
func (m *memo[T]) invalidate() {
	m.mu.Lock()
	m.valid = false
	m.gen++
	m.mu.Unlock()
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

	// PageRank parameters. The seed's query paths used damping 0.85 with 15
	// iterations (entity summaries) and 20 (disambiguation prior); the
	// shared artifact uses the stricter 20.
	Damping float64
	Iters   int

	// MaxLag is the staleness budget in mutation epochs: a cached PageRank
	// or prior within MaxLag completed mutations of the current epoch is
	// served as-is. 0 means strictly fresh (recompute on any change). At an
	// unchanged epoch reads always hit regardless of MaxLag.
	MaxLag uint64

	view     memo[*graph.View]
	pagerank memo[*graph.Ranks]
	prior    memo[map[string]float64]
	topics   memo[map[graph.VertexID][]float64]

	// windowed memoizes PageRank per bounded time window, keyed by the
	// window and epoch-checked like the main artifacts (so a windowed query
	// repeated at an unchanged epoch is a map read). Entries are LRU-ordered
	// (wlru front = most recently used) and capped at maxWindowedArtifacts; evicting
	// an entry mid-compute is safe — the in-flight computation keeps its
	// memo alive through the pointer it holds.
	wmu              sync.Mutex
	windowed         map[temporal.Window]*windowedEntry
	wlru             *list.List // of temporal.Window
	windowedComputes atomic.Uint64

	// topicsFn builds per-entity topic vectors (an LDA fit — expensive).
	// Unlike pagerank/prior, topics do NOT recompute on every epoch bump:
	// they are built lazily once, stay sticky across mutations, and refresh
	// only through RefreshTopics. Stats reports the resulting epoch lag.
	topicsFn atomic.Pointer[func() map[graph.VertexID][]float64]

	hits, misses, computes atomic.Uint64
}

// New returns a cache over kg with the standard PageRank schedule and a
// default staleness budget of 256 mutations — roughly the write volume of a
// few documents, so importance scores stay visibly current while bulk
// ingestion amortizes recomputation.
func New(kg *core.KG) *Cache {
	return &Cache{kg: kg, Damping: 0.85, Iters: 20, MaxLag: 256}
}

// Epoch returns the underlying graph's mutation epoch (lock-free).
func (c *Cache) Epoch() uint64 { return c.kg.Graph().Epoch() }

func (c *Cache) account(hit, computed bool) {
	if hit {
		c.hits.Add(1)
		return
	}
	c.misses.Add(1)
	if computed {
		c.computes.Add(1)
	}
}

// viewAt returns the compiled view for epoch now. The view is keyed on the
// exact epoch (no staleness budget — MaxLag applies to the rank vectors built
// from it) and is not counted in Stats: it is an input of the artifacts, and
// Computes keeps counting kernel runs as it always has.
func (c *Cache) viewAt(now uint64) *graph.View {
	v, _, _ := c.view.get(now, 0, func() *graph.View {
		return graph.Compile(c.kg.Graph(), temporal.AlwaysVisible)
	})
	return v
}

// rank runs the PageRank kernel over the view at epoch now, restricted to the
// window's edges (the unbounded window keeps every edge without a test).
func (c *Cache) rank(now uint64, w temporal.Window) *graph.Ranks {
	var keep func(ts int64, alwaysVisible bool) bool
	if w.Bounded() {
		keep = w.ContainsStamp
	}
	return c.viewAt(now).PageRank(c.Damping, c.Iters, keep)
}

// PageRank returns the memoized PageRank vector for the current epoch.
func (c *Cache) PageRank() *graph.Ranks {
	now := c.Epoch()
	v, hit, computed := c.pagerank.get(now, c.MaxLag, func() *graph.Ranks {
		return c.rank(now, temporal.All())
	})
	c.account(hit, computed)
	return v
}

// Importance returns one vertex's PageRank score at the current epoch.
func (c *Cache) Importance(id graph.VertexID) float64 {
	return c.PageRank().At(id)
}

// maxWindowedArtifacts caps the distinct windows whose PageRank is cached
// simultaneously; beyond it the least-recently-used window is evicted.
// Serving workloads repeat a handful of windows ("last week", "this year");
// anything beyond the cap recomputes.
const maxWindowedArtifacts = 8

// windowedEntry is one window's memo plus its position in the LRU list.
type windowedEntry struct {
	memo *memo[*graph.Ranks]
	elem *list.Element
}

// WindowedPageRank returns the memoized PageRank of the subgraph visible in
// the window (curated edges plus extracted edges whose timestamp lies in
// [Since, Until)), keyed by (epoch, window). The unbounded window delegates
// to PageRank, so the unwindowed hot path is untouched. At the entry cap the
// least-recently-used window is evicted, so a hot window survives churn from
// one-off windows.
func (c *Cache) WindowedPageRank(w temporal.Window) *graph.Ranks {
	if w.IsAll() {
		return c.PageRank()
	}
	c.wmu.Lock()
	if c.windowed == nil {
		c.windowed = make(map[temporal.Window]*windowedEntry)
		c.wlru = list.New()
	}
	e, ok := c.windowed[w]
	if ok {
		c.wlru.MoveToFront(e.elem)
	} else {
		e = &windowedEntry{memo: &memo[*graph.Ranks]{}}
		e.elem = c.wlru.PushFront(w)
		c.windowed[w] = e
		for c.wlru.Len() > maxWindowedArtifacts {
			back := c.wlru.Back()
			c.wlru.Remove(back)
			delete(c.windowed, back.Value.(temporal.Window))
		}
	}
	c.wmu.Unlock()

	now := c.Epoch()
	v, hit, computed := e.memo.get(now, c.MaxLag, func() *graph.Ranks {
		c.windowedComputes.Add(1)
		return c.rank(now, w)
	})
	c.account(hit, computed)
	return v
}

// WindowedImportance returns one vertex's PageRank score within the window.
func (c *Cache) WindowedImportance(id graph.VertexID, w temporal.Window) float64 {
	return c.WindowedPageRank(w).At(id)
}

// PopularityPrior returns the disambiguation popularity prior: per entity
// name, PageRank normalized by the maximum rank (so the most central entity
// scores 1). The returned map is shared; callers must not mutate it.
func (c *Cache) PopularityPrior() map[string]float64 {
	now := c.Epoch()
	v, hit, computed := c.prior.get(now, c.MaxLag, func() map[string]float64 {
		// Compute the rank vector directly instead of reading it through the
		// shared pagerank memo. The prior is an ingest-path heuristic: going
		// through c.PageRank() here would leave a mid-ingest vector in the
		// memo that serves query-path importance, and MaxLag would keep
		// serving it — so two replicas at the same epoch could answer with
		// importance scores from different warming histories. Keeping the
		// served memo warmed only by the query path makes equal epochs give
		// equal answers across a leader and its read replicas.
		pr := c.rank(now, temporal.All())
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
		return prior
	})
	c.account(hit, computed)
	return v
}

// InvalidatePrior drops the memoized PageRank and popularity prior so the
// next read recomputes against the live graph regardless of MaxLag.
func (c *Cache) InvalidatePrior() {
	c.pagerank.invalidate()
	c.prior.invalidate()
}

// SetTopicsFn registers the (expensive) topic-vector builder. The pipeline
// installs its LDA fit here; Topics and RefreshTopics run it under
// singleflight.
func (c *Cache) SetTopicsFn(fn func() map[graph.VertexID][]float64) {
	c.topicsFn.Store(&fn)
}

// Topics returns the per-entity topic vectors, building them on first use.
// Built vectors are sticky: mutations do not invalidate them (an LDA refit
// per write would dwarf the write); call RefreshTopics to rebuild. Returns
// nil when no builder is registered.
func (c *Cache) Topics() map[graph.VertexID][]float64 {
	fnp := c.topicsFn.Load()
	if fnp == nil {
		return nil
	}
	if v, _, ok := c.topics.peek(); ok {
		c.hits.Add(1)
		return v
	}
	now := c.Epoch()
	v, hit, computed := c.topics.get(now, ^uint64(0), *fnp)
	c.account(hit, computed)
	return v
}

// RefreshTopics rebuilds the topic vectors against the current graph state.
// Concurrent refreshes coalesce into one build.
func (c *Cache) RefreshTopics() map[graph.VertexID][]float64 {
	fnp := c.topicsFn.Load()
	if fnp == nil {
		return nil
	}
	c.topics.invalidate()
	now := c.Epoch()
	v, hit, computed := c.topics.get(now, ^uint64(0), *fnp)
	c.account(hit, computed)
	return v
}

// Stats snapshots cache counters. Safe to call concurrently with queries.
func (c *Cache) Stats() Stats {
	epoch := c.Epoch()
	st := Stats{
		Epoch:    epoch,
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Computes: c.computes.Load(),
	}
	if _, te, ok := c.topics.peek(); ok {
		st.TopicsEpoch = te
		if epoch > te {
			st.TopicsLag = epoch - te
		}
	}
	c.wmu.Lock()
	st.WindowedArtifacts = len(c.windowed)
	c.wmu.Unlock()
	st.WindowedComputes = c.windowedComputes.Load()
	return st
}
