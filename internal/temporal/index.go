package temporal

import (
	"math"
	"sort"
	"sync"
	"time"

	"nous/internal/graph"
)

// Timeless is the edge timestamp a zero provenance time maps to
// (time.Time{}.Unix(), year 1) — what curated facts carry. Span and Stats
// exclude timestamps at or before it so the reported span describes the
// dated stream, not the background substrate.
var Timeless = time.Time{}.Unix()

// entry is one indexed edge: its timestamp and ID. Entries within a shard
// are kept sorted by (ts, id).
type entry struct {
	ts int64
	id graph.EdgeID
}

// entryLess is the (ts, id) order every shard maintains.
func entryLess(a, b entry) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	return a.id < b.id
}

// ishard is one stripe of the index: a data partition, not a lock. Edges are
// assigned to the stripe of their edge ID with the same mapping the graph's
// own stripes use.
//
// entries[:sorted] is in (ts, id) order; entries[sorted:] is an unsorted
// append tail. The live insert path only ever appends — in-order entries
// (the roughly-chronological stream) extend the sorted run for free, while
// out-of-order entries (reverse-chronological backfill) park in the tail and
// are merged in one batch sort at the next read. That keeps the work done
// under the writer's held locks O(1) instead of an O(stripe) memmove, which
// made historical bulk import quadratic.
type ishard struct {
	entries []entry
	sorted  int
	byID    map[graph.EdgeID]int64 // id -> indexed timestamp, for removal
}

// Index is a per-stripe time-ordered edge index over one graph. It is kept in
// sync through the graph's mutation stream (Attach) and can be rebuilt from
// graph state after recovery, when restores bypass the mutation hooks. All
// methods are safe for concurrent use.
//
// One RWMutex guards every stripe. The mutation hook takes it while the
// graph's write lock is held, so it comes last in the store's lock order
// (see package graph): nothing here calls into the graph while holding it.
type Index struct {
	g      *graph.Graph
	mu     sync.RWMutex
	shards []ishard
	detach func()
}

// Stats is a snapshot of the index for /api/v1/stats.
type Stats struct {
	// Edges is the number of indexed edges, timeless ones included.
	Edges int `json:"edges"`
	// MinTimestamp/MaxTimestamp span the *dated* indexed timestamps —
	// edges whose provenance time was zero (the curated substrate) are
	// excluded. Both are 0 when no dated edge is indexed.
	MinTimestamp int64 `json:"min_timestamp"`
	MaxTimestamp int64 `json:"max_timestamp"`
}

// NewIndex builds an index of g's current edges without subscribing to
// future mutations. Most callers want Attach.
func NewIndex(g *graph.Graph) *Index {
	ix := newIndex(g)
	ix.scan()
	return ix
}

// Attach builds an index of g's current edges and subscribes to the graph's
// mutation stream so every subsequent AddEdge/AddEdges/RemoveEdge keeps the
// index in sync. The hook is installed before the initial scan and inserts
// are idempotent, so edges added concurrently with the scan are indexed
// exactly once; attach before concurrent *removals* begin (the pipeline
// attaches at construction, ahead of ingestion). Call Detach to unsubscribe.
func Attach(g *graph.Graph) *Index {
	ix := newIndex(g)
	ix.detach = g.AddMutationHook(ix.OnMutation)
	ix.scan()
	return ix
}

func newIndex(g *graph.Graph) *Index {
	ix := &Index{g: g, shards: make([]ishard, graph.ShardCount())}
	ix.resetLocked()
	return ix
}

// resetLocked empties every stripe. The caller holds the write lock.
func (ix *Index) resetLocked() {
	for i := range ix.shards {
		s := &ix.shards[i]
		s.entries, s.sorted = s.entries[:0], 0
		s.byID = make(map[graph.EdgeID]int64)
	}
}

// Detach unsubscribes the index from the graph's mutation stream. The index
// remains readable but no longer tracks new writes.
func (ix *Index) Detach() {
	if ix.detach != nil {
		ix.detach()
		ix.detach = nil
	}
}

// Rebuild clears the index and re-scans the graph. Recovery calls it (via
// NewIndex/Attach) because snapshot loads and WAL replay restore edges
// without emitting mutations. The graph must be quiescent for the rebuild to
// be a consistent cut.
func (ix *Index) Rebuild() {
	ix.mu.Lock()
	ix.resetLocked()
	ix.mu.Unlock()
	ix.scan()
}

// scan back-fills the index from the graph's current edges with one
// slab-native pass (graph.ScanEdges): no per-edge materialization, no
// ID-list sort — just the (timestamp, id) columns the index needs. Entries
// are bucketed per stripe and each stripe is sorted once — O(E log E) total —
// rather than insertion-sorted edge by edge, which would make recovery of a
// large graph quadratic. The graph is read before the index lock is taken;
// edges the mutation hook indexed in between are deduplicated through byID.
func (ix *Index) scan() {
	buckets := make([][]entry, len(ix.shards))
	ix.g.ScanEdges(func(e *graph.EdgeScan) bool {
		si := int(uint64(e.ID) % uint64(len(ix.shards)))
		buckets[si] = append(buckets[si], entry{ts: e.Timestamp, id: e.ID})
		return true
	})
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for si, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		s := &ix.shards[si]
		for _, en := range bucket {
			if _, dup := s.byID[en.id]; dup {
				continue
			}
			s.byID[en.id] = en.ts
			s.entries = append(s.entries, en)
		}
		s.flushLocked()
	}
}

// OnMutation consumes one graph mutation. Only edge insertions and removals
// move the index; property and weight updates do not change timestamps.
func (ix *Index) OnMutation(m graph.Mutation) {
	switch m.Kind {
	case graph.MutAddEdges:
		ix.mu.Lock()
		for i := range m.Edges {
			ix.shardOf(m.Edges[i].ID).insert(m.Edges[i].ID, m.Edges[i].Timestamp)
		}
		ix.mu.Unlock()
	case graph.MutRemoveEdge:
		ix.mu.Lock()
		ix.shardOf(m.EdgeID).remove(m.EdgeID)
		ix.mu.Unlock()
	}
}

func (ix *Index) shardOf(id graph.EdgeID) *ishard {
	return &ix.shards[uint64(id)%uint64(len(ix.shards))]
}

// insert indexes one edge. Inserting an already-indexed ID is a no-op, which
// makes the attach-time scan idempotent against concurrently hooked inserts.
// The write is an O(1) append: in-order entries extend the sorted run, and
// out-of-order entries land in the unsorted tail flushed lazily by the next
// read — a reverse-chronological backfill of n edges costs one O(n log n)
// sort instead of n stripe-wide memmoves under the held lock.
func (s *ishard) insert(id graph.EdgeID, ts int64) {
	if _, dup := s.byID[id]; dup {
		return
	}
	s.byID[id] = ts
	en := entry{ts: ts, id: id}
	s.entries = append(s.entries, en)
	if s.sorted == len(s.entries)-1 && (s.sorted == 0 || !entryLess(en, s.entries[s.sorted-1])) {
		s.sorted = len(s.entries)
	}
}

// flushLocked merges the unsorted append tail into the sorted run. The tail
// is sorted on its own (t log t) and merged with the prefix in one linear
// pass; the caller holds the index's write lock.
func (s *ishard) flushLocked() {
	if s.sorted == len(s.entries) {
		return
	}
	tail := s.entries[s.sorted:]
	sort.Slice(tail, func(i, j int) bool { return entryLess(tail[i], tail[j]) })
	if s.sorted > 0 {
		merged := make([]entry, 0, len(s.entries))
		i, j := 0, s.sorted
		for i < s.sorted && j < len(s.entries) {
			if entryLess(s.entries[j], s.entries[i]) {
				merged = append(merged, s.entries[j])
				j++
			} else {
				merged = append(merged, s.entries[i])
				i++
			}
		}
		merged = append(merged, s.entries[i:s.sorted]...)
		merged = append(merged, s.entries[j:]...)
		s.entries = merged
	}
	s.sorted = len(s.entries)
}

// read runs fn under the lock with every stripe's entries sorted. The fast
// path (no pending append tail) runs fn under the read lock so concurrent
// readers proceed in parallel; when a flush is needed, fn runs under the
// write lock taken to flush — re-downgrading to a read lock would open an
// unbounded retry loop against a steady out-of-order writer appending
// between the unlock and re-lock.
func (ix *Index) read(fn func()) {
	ix.mu.RLock()
	if ix.flushedLocked() {
		fn()
		ix.mu.RUnlock()
		return
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	for i := range ix.shards {
		ix.shards[i].flushLocked()
	}
	fn()
	ix.mu.Unlock()
}

// flushedLocked reports whether no stripe has a pending append tail.
func (ix *Index) flushedLocked() bool {
	for i := range ix.shards {
		if s := &ix.shards[i]; s.sorted != len(s.entries) {
			return false
		}
	}
	return true
}

// remove drops one edge from the stripe. Removing an unindexed ID is a no-op.
func (s *ishard) remove(id graph.EdgeID) {
	ts, ok := s.byID[id]
	if !ok {
		return
	}
	delete(s.byID, id)
	s.flushLocked()
	i := sort.Search(len(s.entries), func(i int) bool {
		e := s.entries[i]
		return e.ts > ts || (e.ts == ts && e.id >= id)
	})
	if i < len(s.entries) && s.entries[i].id == id {
		s.entries = append(s.entries[:i], s.entries[i+1:]...)
		s.sorted = len(s.entries)
	}
}

// Len returns the number of indexed edges.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for i := range ix.shards {
		n += len(ix.shards[i].entries)
	}
	return n
}

// rangeOf returns the half-open entry range of w within a stripe's sorted
// entries. The caller runs inside read.
func (s *ishard) rangeOf(w Window) (lo, hi int) {
	if w.IsAll() {
		return 0, len(s.entries)
	}
	lo = sort.Search(len(s.entries), func(i int) bool { return s.entries[i].ts >= w.Since })
	hi = sort.Search(len(s.entries), func(i int) bool { return s.entries[i].ts >= w.Until })
	if hi < lo {
		// An empty/inverted window (e.g. a disjoint intersection) searches
		// to hi < lo; clamp so callers get an empty range, not a panic.
		hi = lo
	}
	return lo, hi
}

// datedFrom returns the first entry after the timeless prefix.
func (s *ishard) datedFrom() int {
	return sort.Search(len(s.entries), func(i int) bool { return s.entries[i].ts > Timeless })
}

// EdgesIn returns the IDs of edges whose timestamp lies in w, ordered by
// (timestamp, ID).
func (ix *Index) EdgesIn(w Window) []graph.EdgeID {
	return idsOf(ix.gather(func(s *ishard) (int, int) { return s.rangeOf(w) }))
}

// DatedIn is EdgesIn restricted to dated edges: entries at or before the
// timeless sentinel (zero provenance time, i.e. the curated substrate) are
// skipped via the same sorted-prefix search Span uses, so a window unbounded
// below never materializes the curated substrate. It is the right read for
// stream-shaped consumers (eviction, whole-stream scans) for which curated
// knowledge is timeless background, not part of the stream.
func (ix *Index) DatedIn(w Window) []graph.EdgeID {
	return idsOf(ix.gather(func(s *ishard) (int, int) {
		lo, hi := s.rangeOf(w)
		return max(lo, s.datedFrom()), hi
	}))
}

// LatestIn returns the IDs of the newest k dated edges whose timestamps lie
// in w, ordered oldest-to-newest. Like DatedIn it skips the timeless prefix,
// so the undated curated substrate never fills the feed. Only the tail of
// each stripe's in-window range is read — O(stripes·(log n + k)) — which is
// what makes the index cheaper than a full edge scan for feed-style "what
// just happened" queries.
func (ix *Index) LatestIn(w Window, k int) []graph.EdgeID {
	if k <= 0 {
		return nil
	}
	all := ix.gather(func(s *ishard) (int, int) {
		lo, hi := s.rangeOf(w)
		return max(lo, hi-k, s.datedFrom()), hi
	})
	return idsOf(all[max(0, len(all)-k):])
}

// gather concatenates the entry range pick chooses in every stripe, read
// with the stripes sorted, and returns it in (ts, id) order.
func (ix *Index) gather(pick func(*ishard) (lo, hi int)) []entry {
	var all []entry
	ix.read(func() {
		for i := range ix.shards {
			s := &ix.shards[i]
			if lo, hi := pick(s); lo < hi {
				all = append(all, s.entries[lo:hi]...)
			}
		}
	})
	sort.Slice(all, func(i, j int) bool { return entryLess(all[i], all[j]) })
	return all
}

func idsOf(es []entry) []graph.EdgeID {
	ids := make([]graph.EdgeID, len(es))
	for i, e := range es {
		ids[i] = e.id
	}
	return ids
}

// Span returns the minimum and maximum *dated* indexed timestamps — edges
// at or before the timeless sentinel (zero provenance time, i.e. the
// curated substrate) are skipped, so the span describes the stream. ok is
// false when no dated edge is indexed.
func (ix *Index) Span() (min, max int64, ok bool) {
	min, max = math.MaxInt64, math.MinInt64
	ix.read(func() {
		for i := range ix.shards {
			s := &ix.shards[i]
			// Entries are sorted by timestamp; skip the timeless prefix.
			if lo := s.datedFrom(); lo < len(s.entries) {
				ok = true
				if first := s.entries[lo].ts; first < min {
					min = first
				}
				if last := s.entries[len(s.entries)-1].ts; last > max {
					max = last
				}
			}
		}
	})
	if !ok {
		return 0, 0, false
	}
	return min, max, true
}

// Stats snapshots the index state.
func (ix *Index) Stats() Stats {
	st := Stats{Edges: ix.Len()}
	if min, max, ok := ix.Span(); ok {
		st.MinTimestamp, st.MaxTimestamp = min, max
	}
	return st
}
