package graph

import (
	"runtime"
	"slices"
	"sort"
	"sync"
)

// View is an immutable compiled form of the graph's topology: the edge list
// flattened out of the slabs into dense columns that whole-graph kernels
// (PageRank) iterate with array indexing instead of map lookups. One Compile
// costs one pass over the edge slabs; every kernel run over the view
// afterwards touches no lock, no map and no slab.
//
// Vertices are indexed densely in ascending VertexID order. Edges are grouped
// by destination and ordered by edge ID inside a group (CSR over in-edges:
// the edges into vertex i are [start[i], start[i+1]), so the destination
// column is implicit). That order depends only on the edge set — not on
// insertion interleaving or on the path that filled the slab — so two graphs holding the
// same edges (a leader, a replica fed its mutation stream, a snapshot+WAL
// reopen) compile to identical views, and a kernel that sums in view order
// gives them bitwise-equal results.
//
// Offsets and indexes are int32: a view addresses at most 2^31-1 vertices and
// edges, far past what one process holds in memory.
type View struct {
	ids      []VertexID // ascending; a vertex's dense index is its position here
	start    []int32    // len(ids)+1 offsets into the edge columns, by destination index
	src      []int32    // dense source index per edge
	ts       []int64    // edge timestamp
	timeless []bool     // the caller's "visible in every window" rule, evaluated at compile
}

// viewEdge is one edge copied out of a scan view during Compile, which
// copies them in ID order.
type viewEdge struct {
	src, dst VertexID
	ts       int64
	timeless bool
}

// Compile builds the view of g. timeless marks the edges a windowed kernel
// must keep whatever the window (nil marks none); it is evaluated once per
// edge here rather than on every visit of every kernel run.
//
// The edges and vertices are read under one acquisition of the graph's read
// lock, so the view is an exact cut whatever writers run beside it: it holds
// precisely the state of one epoch. core.KG's CompileView reads that epoch
// under the same exclusion to label the view. The grouping below runs after
// the lock is released.
func Compile(g *Graph, timeless func(*EdgeScan) bool) *View {
	g.mu.RLock()
	edges := make([]viewEdge, 0, g.slab.live)
	g.scanEdgesLocked(0, func(e *EdgeScan) bool {
		edges = append(edges, viewEdge{src: e.Src, dst: e.Dst, ts: e.Timestamp,
			timeless: timeless != nil && timeless(e)})
		return true
	})
	ids := make([]VertexID, 0, g.numVertices) // ascending: a walk over the rows
	for i := range g.vertices {
		if g.vertices[i].live {
			ids = append(ids, VertexID(i))
		}
	}
	g.mu.RUnlock()
	n, m := len(ids), len(edges)

	// Counting sort by destination index. The scan yields the edges in ID
	// order and the counting sort is stable, so each group comes out in ID
	// order with no sort of its own: O(n + m).
	start := make([]int32, n+1)
	dst := make([]int32, m)
	for k := range edges {
		d := mustIndex(ids, edges[k].dst)
		dst[k] = d
		start[d+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	order := make([]int32, m)
	cursor := slices.Clone(start[:n])
	for k, d := range dst {
		order[cursor[d]] = int32(k)
		cursor[d]++
	}
	v := &View{ids: ids, start: start, src: make([]int32, m), ts: make([]int64, m), timeless: make([]bool, m)}
	for p, k := range order {
		e := &edges[k]
		v.src[p] = mustIndex(ids, e.src)
		v.ts[p] = e.ts
		v.timeless[p] = e.timeless
	}
	return v
}

// indexOf returns id's position in the ascending ids. Allocator-assigned
// vertex IDs are 0..n-1, so the position usually is the ID itself.
func indexOf(ids []VertexID, id VertexID) (int32, bool) {
	if i := int(id); i >= 0 && i < len(ids) && ids[i] == id {
		return int32(i), true
	}
	i, ok := slices.BinarySearch(ids, id)
	return int32(i), ok
}

func mustIndex(ids []VertexID, id VertexID) int32 {
	i, ok := indexOf(ids, id)
	if !ok {
		panic("graph: compiled an edge whose endpoint is not a vertex")
	}
	return i
}

// NumEdges returns the number of edges in the view.
func (v *View) NumEdges() int { return len(v.src) }

// Ranks is a read-only dense score vector over a view's vertices.
type Ranks struct {
	ids  []VertexID // the view's vertex index, shared
	rank []float64
}

// Len returns the number of vertices scored.
func (r *Ranks) Len() int { return len(r.rank) }

// At returns id's score, or 0 when the vertex is not in the view.
func (r *Ranks) At(id VertexID) float64 {
	if i, ok := indexOf(r.ids, id); ok {
		return r.rank[i]
	}
	return 0
}

// Each calls fn with every vertex and its score, in ascending vertex order.
func (r *Ranks) Each(fn func(id VertexID, rank float64)) {
	for i, id := range r.ids {
		fn(id, r.rank[i])
	}
}

// parallelEdges is the kept-edge count from which PageRank splits each
// iteration's pull across GOMAXPROCS workers; below it one iteration is too
// short to pay for a goroutine fan-out and join, and the kernel runs serially.
// It is a property of the input, not a setting. Measured with
// BenchmarkViewPageRank (20 iterations, the window keeps 2/3 of the edges,
// GOMAXPROCS 2, medians of three alternating runs with the constant forced to
// "never" and to "always"), serial → chunked per recompute: 1k edges 39 → 64 µs,
// 10k 479 → 593 µs, 100k 9.0 → 7.4 ms, 1M 114 → 87 ms. The crossover lies
// between 6.7k and 67k kept edges; 32k sits inside it.
const parallelEdges = 1 << 15

// PageRank computes PageRank over the view's vertices and the edges for which
// keep(timestamp, timeless) returns true (nil keeps every edge). A vertex
// whose outgoing edges are all filtered out contributes dangling mass like
// any sink; dangling mass is redistributed uniformly, so the scores sum to 1.
// Each iteration is one synchronous step — share[i] = rank[i]/outdeg[i], then
// every vertex pulls the shares of its kept in-edges in view order — over
// flat buffers allocated once per call. Because a vertex's sum is always
// taken by one worker in view order, the result is bitwise the same for
// every GOMAXPROCS and on every graph with the same vertices and edges.
func (v *View) PageRank(damping float64, iters int, keep func(ts int64, timeless bool) bool) *Ranks {
	n := len(v.ids)
	r := &Ranks{ids: v.ids, rank: make([]float64, n)}
	if n == 0 {
		return r
	}
	src, start, outdeg := v.kept(keep)
	var bounds []int // nil: serial
	if workers := runtime.GOMAXPROCS(0); workers > 1 && len(src) >= parallelEdges {
		bounds = chunkBounds(start, len(src), workers)
	}
	rank, next, share := r.rank, make([]float64, n), make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		var dangling float64
		for i, d := range outdeg {
			if d == 0 {
				dangling += rank[i]
				share[i] = 0
			} else {
				share[i] = rank[i] / d
			}
		}
		spread := damping * dangling / float64(n)
		if bounds == nil {
			pullShares(next, share, src, start, 0, n, base, damping, spread)
		} else {
			var wg sync.WaitGroup
			for w := 0; w+1 < len(bounds); w++ {
				wg.Add(1)
				go func(next []float64, lo, hi int) {
					defer wg.Done()
					pullShares(next, share, src, start, lo, hi, base, damping, spread)
				}(next, bounds[w], bounds[w+1])
			}
			wg.Wait()
		}
		rank, next = next, rank
	}
	r.rank = rank
	return r
}

// kept applies the window once: it returns the in-edge CSR (source column and
// per-destination offsets) of the edges passing keep, in view order, and each
// vertex's kept out-degree. Iterations then run the same branch-free loop
// whether or not there is a window. A nil keep returns the view's own columns.
func (v *View) kept(keep func(ts int64, timeless bool) bool) (src, start []int32, outdeg []float64) {
	n := len(v.ids)
	outdeg = make([]float64, n)
	if keep == nil {
		for _, s := range v.src {
			outdeg[s]++
		}
		return v.src, v.start, outdeg
	}
	src, start = make([]int32, 0, len(v.src)), make([]int32, n+1)
	for i := 0; i < n; i++ {
		for e := v.start[i]; e < v.start[i+1]; e++ {
			if keep(v.ts[e], v.timeless[e]) {
				src = append(src, v.src[e])
				outdeg[v.src[e]]++
			}
		}
		start[i+1] = int32(len(src))
	}
	return src, start, outdeg
}

// chunkBounds splits the destinations into one contiguous range per worker
// holding about edges/workers in-edges each: range w is
// [bounds[w], bounds[w+1]).
func chunkBounds(start []int32, edges, workers int) []int {
	n := len(start) - 1
	bounds := make([]int, 0, workers+1)
	for w := 0; w < workers; w++ {
		target := int32(edges / workers * w)
		bounds = append(bounds, sort.Search(n, func(i int) bool { return start[i] >= target }))
	}
	return append(bounds, n)
}

// pullShares writes the next rank of every vertex in [lo, hi): the teleport
// base, the damped sum of its in-neighbours' shares, and its part of the
// dangling mass.
func pullShares(next, share []float64, src, start []int32, lo, hi int, base, damping, spread float64) {
	for i := lo; i < hi; i++ {
		var contrib float64
		for _, s := range src[start[i]:start[i+1]] {
			contrib += share[s]
		}
		next[i] = base + damping*contrib + spread
	}
}
