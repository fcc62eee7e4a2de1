package temporal

import (
	"cmp"
	"slices"
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

// entry is one indexed edge: its timestamp and ID, and whether a removal
// marked it dead. An edge ID fits 32 bits (the graph's slab bounds it), so
// an entry is 16 bytes.
type entry struct {
	ts   int64
	id   uint32
	dead bool
}

// compareEntries is the (ts, id) order of the index's run.
func compareEntries(a, b entry) int {
	if c := cmp.Compare(a.ts, b.ts); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// Index is a time-ordered edge index over one graph: one run of entries in
// (ts, id) order. It is kept in sync through the graph's mutation stream
// (Attach) and can be rebuilt from graph state after recovery, when restores
// bypass the mutation hooks. All methods are safe for concurrent use.
//
// entries[:sorted] is the sorted run, strictly increasing; entries[sorted:]
// is an unsorted append tail. A write, which runs under the graph's held
// write lock, never moves the run:
//   - an insert appends. An in-order entry (the roughly chronological stream)
//     extends the run; an out-of-order one (reverse-chronological backfill)
//     or a second copy of an entry parks in the tail.
//   - a removal finds its entry by the timestamp its MutRemoveEdge carries: a
//     binary search of the run, where it marks the entry dead, and a pass
//     over the tail, which drops every copy there.
//
// The next read settles the index (settleLocked): it sorts the tail, merges
// it into the run and drops dead entries and duplicates (an edge both the
// attach-time scan and the hook indexed). A settled index answers every
// window with one contiguous range of the run.
//
// One RWMutex guards the run. The mutation hook takes it while the graph's
// write lock is held, so it comes last in the store's lock order (see
// package graph): nothing here calls into the graph while holding it.
type Index struct {
	g       *graph.Graph
	mu      sync.RWMutex
	entries []entry
	sorted  int // length of the sorted run
	dead    int // entries in the run marked dead
	detach  func()
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
	ix := &Index{g: g}
	ix.scan()
	return ix
}

// Attach builds an index of g's current edges and subscribes to the graph's
// mutation stream so every subsequent AddEdge/AddEdges/RemoveEdge keeps the
// index in sync. The hook is installed before the initial scan and the
// settle drops duplicates, so edges added concurrently with the scan are
// indexed exactly once; attach before concurrent *removals* begin (the
// pipeline attaches at construction, ahead of ingestion). Call Detach to
// unsubscribe.
func Attach(g *graph.Graph) *Index {
	ix := &Index{g: g}
	ix.detach = g.AddMutationHook(ix.OnMutation)
	ix.scan()
	return ix
}

// Detach unsubscribes the index from the graph's mutation stream. The index
// remains readable but no longer tracks new writes.
func (ix *Index) Detach() {
	if ix.detach != nil {
		ix.detach()
		ix.detach = nil
	}
}

// Rebuild clears the index and re-scans the graph. Recovery calls it
// (through core.KG.Rebuild) because a snapshot load restores edges without
// emitting mutations; WAL replay applies records through
// graph.ApplyReplicated, which emits them, and the rescan re-derives those
// entries along with the rest. The graph must be quiescent for the rebuild
// to be a consistent cut.
func (ix *Index) Rebuild() {
	ix.mu.Lock()
	ix.entries, ix.sorted, ix.dead = ix.entries[:0], 0, 0
	ix.mu.Unlock()
	ix.scan()
}

// scan back-fills the index from the graph's current edges with one
// slab-native pass (graph.ScanEdges): no per-edge materialization, just the
// (timestamp, id) columns the index needs. The entries join the tail and
// are settled once — O(E log E) — rather than inserted one by one. The
// graph is read before the index lock is taken; the settle drops the
// entries the mutation hook indexed in between a second time.
func (ix *Index) scan() {
	var found []entry
	ix.g.ScanEdges(func(e *graph.EdgeScan) bool {
		found = append(found, entry{ts: e.Timestamp, id: uint32(e.ID)})
		return true
	})
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.entries = append(ix.entries, found...)
	ix.settleLocked()
}

// OnMutation consumes one graph mutation. Only edge insertions and removals
// move the index; vertex writes do not change timestamps.
func (ix *Index) OnMutation(m graph.Mutation) {
	switch m.Kind {
	case graph.MutAddEdges:
		ix.mu.Lock()
		for i := range m.Edges {
			ix.insertLocked(entry{ts: m.Edges[i].Timestamp, id: uint32(m.Edges[i].ID)})
		}
		ix.mu.Unlock()
	case graph.MutRemoveEdge:
		ix.mu.Lock()
		ix.removeLocked(entry{ts: m.Timestamp, id: uint32(m.EdgeID)})
		ix.mu.Unlock()
	}
}

// insertLocked appends one entry, extending the sorted run when the entry
// follows its last one.
func (ix *Index) insertLocked(en entry) {
	ix.entries = append(ix.entries, en)
	if ix.sorted == len(ix.entries)-1 && (ix.sorted == 0 || compareEntries(ix.entries[ix.sorted-1], en) < 0) {
		ix.sorted++
	}
}

// removeLocked drops one edge: it marks its entry in the run dead and
// deletes every copy from the tail. Removing an unindexed edge is a no-op.
func (ix *Index) removeLocked(en entry) {
	run := ix.entries[:ix.sorted]
	if i, ok := slices.BinarySearchFunc(run, en, compareEntries); ok && !run[i].dead {
		run[i].dead = true
		ix.dead++
	}
	tail := slices.DeleteFunc(ix.entries[ix.sorted:], func(e entry) bool { return e.id == en.id })
	ix.entries = ix.entries[:ix.sorted+len(tail)]
}

// settleLocked makes the index one sorted run with no dead entry and no
// duplicate. The tail is sorted on its own (t log t) and merged with the
// part of the run it interleaves with: the run's entries before the tail's
// first stay where they are, so a tail that only extends a roughly
// chronological run costs O(t) plus a search. Duplicates can only sit in
// the merged part; dead entries, if any, are dropped in one pass in place.
// The caller holds the write lock.
func (ix *Index) settleLocked() {
	if ix.settledLocked() {
		return
	}
	run, tail := ix.entries[:ix.sorted], ix.entries[ix.sorted:]
	slices.SortFunc(tail, compareEntries)
	if len(tail) > 0 {
		from, _ := slices.BinarySearchFunc(run, tail[0], compareEntries)
		if from < len(run) {
			copy(ix.entries[from:], mergeRuns(run[from:], tail))
		}
		merged := slices.Compact(ix.entries[from:]) // live entries are equal only as copies of one edge
		ix.entries = ix.entries[:from+len(merged)]
	}
	if ix.dead > 0 {
		ix.entries = slices.DeleteFunc(ix.entries, func(e entry) bool { return e.dead })
	}
	ix.sorted, ix.dead = len(ix.entries), 0
}

// mergeRuns returns the (ts, id)-ordered merge of two sorted runs in a new
// slice.
func mergeRuns(a, b []entry) []entry {
	out := make([]entry, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if compareEntries(b[0], a[0]) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// settledLocked reports whether the index is one sorted run with nothing
// dead in it.
func (ix *Index) settledLocked() bool { return ix.sorted == len(ix.entries) && ix.dead == 0 }

// read runs fn under the lock with the index settled. The fast path (nothing
// to settle) runs fn under the read lock so concurrent readers proceed in
// parallel; when a settle is needed, fn runs under the write lock taken to
// settle — re-downgrading to a read lock would open an unbounded retry loop
// against a steady out-of-order writer appending between the unlock and
// re-lock.
func (ix *Index) read(fn func()) {
	ix.mu.RLock()
	if ix.settledLocked() {
		fn()
		ix.mu.RUnlock()
		return
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	ix.settleLocked()
	fn()
	ix.mu.Unlock()
}

// Len returns the number of indexed edges.
func (ix *Index) Len() (n int) {
	ix.read(func() { n = len(ix.entries) })
	return n
}

// from returns the position of the first entry whose timestamp is at least
// ts. The caller runs inside read.
func (ix *Index) from(ts int64) int {
	return sort.Search(len(ix.entries), func(i int) bool { return ix.entries[i].ts >= ts })
}

// rangeOf returns the half-open entry range of w. The caller runs inside
// read.
func (ix *Index) rangeOf(w Window) (lo, hi int) {
	if w.IsAll() {
		return 0, len(ix.entries)
	}
	// An empty/inverted window (e.g. a disjoint intersection) searches to
	// hi < lo; clamp so callers get an empty range.
	lo = ix.from(w.Since)
	return lo, max(lo, ix.from(w.Until))
}

// datedFrom returns the first entry after the timeless prefix. The caller
// runs inside read.
func (ix *Index) datedFrom() int { return ix.from(Timeless + 1) }

// EdgesIn returns the IDs of edges whose timestamp lies in w, ordered by
// (timestamp, ID).
func (ix *Index) EdgesIn(w Window) []graph.EdgeID {
	return ix.idsIn(func() (int, int) { return ix.rangeOf(w) })
}

// DatedIn is EdgesIn restricted to dated edges: entries at or before the
// timeless sentinel (zero provenance time, i.e. the curated substrate) are
// skipped via the same search Span uses, so a window unbounded below never
// materializes the curated substrate. It is the right read for
// stream-shaped consumers (eviction, whole-stream scans) for which curated
// knowledge is timeless background, not part of the stream.
func (ix *Index) DatedIn(w Window) []graph.EdgeID {
	return ix.idsIn(func() (int, int) {
		lo, hi := ix.rangeOf(w)
		return max(lo, ix.datedFrom()), hi
	})
}

// LatestIn returns the IDs of the newest k dated edges whose timestamps lie
// in w, ordered oldest-to-newest. Like DatedIn it skips the timeless prefix,
// so the undated curated substrate never fills the feed. Only the last k
// entries of the in-window range are read — O(log n + k) — which is what
// makes the index cheaper than a full edge scan for feed-style "what just
// happened" queries.
func (ix *Index) LatestIn(w Window, k int) []graph.EdgeID {
	if k <= 0 {
		return nil
	}
	return ix.idsIn(func() (int, int) {
		lo, hi := ix.rangeOf(w)
		return max(lo, hi-k, ix.datedFrom()), hi
	})
}

// idsIn returns the IDs of the entry range pick chooses, read with the index
// settled, in (ts, id) order.
func (ix *Index) idsIn(pick func() (lo, hi int)) []graph.EdgeID {
	var ids []graph.EdgeID
	ix.read(func() {
		lo, hi := pick()
		ids = make([]graph.EdgeID, 0, max(hi-lo, 0))
		for i := lo; i < hi; i++ {
			ids = append(ids, graph.EdgeID(ix.entries[i].id))
		}
	})
	return ids
}

// Span returns the minimum and maximum *dated* indexed timestamps — edges
// at or before the timeless sentinel (zero provenance time, i.e. the
// curated substrate) are skipped, so the span describes the stream. ok is
// false when no dated edge is indexed.
func (ix *Index) Span() (min, max int64, ok bool) {
	ix.read(func() {
		if lo := ix.datedFrom(); lo < len(ix.entries) {
			min, max, ok = ix.entries[lo].ts, ix.entries[len(ix.entries)-1].ts, true
		}
	})
	return min, max, ok
}

// Stats snapshots the index state.
func (ix *Index) Stats() Stats {
	st := Stats{Edges: ix.Len()}
	if min, max, ok := ix.Span(); ok {
		st.MinTimestamp, st.MaxTimestamp = min, max
	}
	return st
}
