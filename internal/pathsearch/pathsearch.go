// Package pathsearch implements NOUS's question-answering graph search
// (§3.6): given a source entity, a target entity and an optional
// relationship constraint, it returns the top-K paths explaining how the
// two are related. The walk performs a look-ahead at every hop — candidate
// nodes are ordered by the Jensen–Shannon divergence between their LDA topic
// distribution and the target's — and every complete path is scored by its
// topic coherence (mean divergence along the path, lower is better). A
// breadth-first shortest-path baseline is provided for the evaluation.
//
// The beam state is allocation-light: partial paths are immutable linked
// nodes sharing their prefixes (extending a path is one small allocation,
// not an O(depth) copy of vertex/edge slices), and the per-path visited set
// is a pooled bitset repopulated from the node chain — O(depth) marks per
// expansion instead of an O(depth) map copy per candidate.
package pathsearch

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"nous/internal/graph"
	"nous/internal/graph/symtab"
	"nous/internal/temporal"
	"nous/internal/topics"
)

// Path is one source→target explanation.
type Path struct {
	Vertices []graph.VertexID
	Edges    []graph.Edge
	// Coherence is the mean topic divergence between consecutive vertices
	// (lower = more coherent). Zero when no topic model is attached.
	Coherence float64
}

// Len returns the number of hops.
func (p Path) Len() int { return len(p.Edges) }

// Options tunes the search.
type Options struct {
	K        int // number of paths to return (default 3)
	MaxDepth int // maximum hops (default 4)
	Beam     int // beam width per depth (default 32)
	// Predicate, when set, requires the path to traverse at least one edge
	// with this label (the paper's "relationship constraint").
	Predicate string
	// Window restricts traversal to edges visible in the time window:
	// curated edges always qualify, extracted edges only when their
	// timestamp lies in [Since, Until). The zero (unbounded) window is a
	// no-op and keeps the unwindowed search byte-identical.
	Window temporal.Window
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 3
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4
	}
	if o.Beam <= 0 {
		o.Beam = 32
	}
	return o
}

// Searcher runs coherence-guided path queries over a property graph. It is
// safe for concurrent use, including against a graph under mutation and
// across SetTopics swaps.
type Searcher struct {
	g *graph.Graph

	// topics holds the current topic map. Swapped atomically by SetTopics
	// so a topic refit never races in-flight queries; each map is read-only
	// once stored.
	topics atomic.Pointer[map[graph.VertexID][]float64]

	// visitedPool recycles per-query bitsets across queries.
	visitedPool sync.Pool
}

// New returns a searcher. topicOf maps vertices to LDA topic distributions;
// it may be nil, in which case the search degrades to an uninformed beam.
// The map must not be mutated after being handed over.
func New(g *graph.Graph, topicOf map[graph.VertexID][]float64) *Searcher {
	s := &Searcher{g: g}
	s.visitedPool.New = func() any { return &bitset{} }
	s.SetTopics(topicOf)
	return s
}

// SetTopics atomically replaces the topic map. In-flight queries keep the
// map they started with; new queries see the new one.
func (s *Searcher) SetTopics(topicOf map[graph.VertexID][]float64) {
	s.topics.Store(&topicOf)
}

// topicsMap snapshots the current topic map; a query captures it once so a
// concurrent SetTopics cannot change scoring mid-search.
func (s *Searcher) topicsMap() map[graph.VertexID][]float64 {
	return *s.topics.Load()
}

// divergence returns the topic JS divergence between two vertices, or 0
// when either lacks a topic vector.
func divergence(topicOf map[graph.VertexID][]float64, a, b graph.VertexID) float64 {
	ta, ok1 := topicOf[a]
	tb, ok2 := topicOf[b]
	if !ok1 || !ok2 || len(ta) != len(tb) {
		return 0
	}
	return topics.JSDivergence(ta, tb)
}

// pathEdge is the compact form a partial path stores per hop: enough to
// rank, deduplicate and constrain paths (ID, endpoints, interned predicate)
// without carrying a materialized graph.Edge — weights, timestamps and props
// are fetched once per *returned* path, not per beam candidate.
type pathEdge struct {
	id       graph.EdgeID
	src, dst graph.VertexID
	label    symtab.SymID
}

// pathNode is an immutable node in a prefix-sharing tree of partial paths.
// Extending a path allocates exactly one node; the tail shares every
// ancestor with its siblings.
type pathNode struct {
	parent *pathNode
	vert   graph.VertexID
	edge   pathEdge // edge connecting parent.vert to vert (zero at the root)
	depth  int      // hops from the root
	divSum float64
}

// materialize renders the node chain as a Path (without coherence), looking
// each edge up in the graph to fill the full record. An edge removed since
// it was traversed falls back to the fields the chain retained (ID,
// endpoints, predicate) — the path stays well-formed.
func (n *pathNode) materialize(g *graph.Graph) Path {
	verts := make([]graph.VertexID, n.depth+1)
	edges := make([]graph.Edge, n.depth)
	for m := n; m != nil; m = m.parent {
		verts[m.depth] = m.vert
		if m.depth > 0 {
			e, ok := g.Edge(m.edge.id)
			if !ok {
				e = graph.Edge{ID: m.edge.id, Src: m.edge.src, Dst: m.edge.dst,
					Label: symtab.Resolve(m.edge.label)}
			}
			edges[m.depth-1] = e
		}
	}
	return Path{Vertices: verts, Edges: edges}
}

// fillVerts writes the chain's vertex sequence into buf, which must have
// length n.depth+1.
func (n *pathNode) fillVerts(buf []graph.VertexID) {
	for m := n; m != nil; m = m.parent {
		buf[m.depth] = m.vert
	}
}

// hasLabel reports whether any edge on the chain carries the interned label.
func (n *pathNode) hasLabel(label symtab.SymID) bool {
	for m := n; m.parent != nil; m = m.parent {
		if m.edge.label == label {
			return true
		}
	}
	return false
}

// bitset is a growable visited set indexed by VertexID. Vertex IDs are
// assigned densely, so the backing array stays proportional to the graph.
type bitset struct {
	words []uint64
}

func (b *bitset) has(id graph.VertexID) bool {
	w := int(id >> 6)
	return w < len(b.words) && b.words[w]&(1<<(uint(id)&63)) != 0
}

func (b *bitset) set(id graph.VertexID) {
	w := int(id >> 6)
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (uint(id) & 63)
}

func (b *bitset) clear(id graph.VertexID) {
	w := int(id >> 6)
	if w < len(b.words) {
		b.words[w] &^= 1 << (uint(id) & 63)
	}
}

// mark sets every vertex on the chain; unmark clears them. Together they
// let one pooled bitset serve every frontier node in turn.
func (b *bitset) mark(n *pathNode) {
	for m := n; m != nil; m = m.parent {
		b.set(m.vert)
	}
}

func (b *bitset) unmark(n *pathNode) {
	for m := n; m != nil; m = m.parent {
		b.clear(m.vert)
	}
}

// scored is one beam candidate with its materialized vertex sequence (for
// deterministic ordering) and look-ahead score.
type scored struct {
	n         *pathNode
	verts     []graph.VertexID
	lookahead float64
}

// expand grows every frontier node by one hop. Completed paths (reaching
// dst) are handed to complete; open extensions are returned as candidates
// with lookahead = divSum + divergence(tail, dst) when toDst is non-nil
// (TopK orders by it; BFS does not and skips the extra divergence). toDst
// memoizes divergence(v, dst) per vertex for the whole query: many candidates
// of one search share a tail. The visited bitset is repopulated per frontier
// node from its chain. Incident edges are snapshotted as compact slab
// projections into a scratch buffer so the graph's read lock is held only
// for the copy — no label-string or props materialization per candidate —
// not for the per-edge divergence math; a long expansion must not stall
// concurrent writers.
func (s *Searcher) expand(frontier []*pathNode, dst graph.VertexID, topicOf map[graph.VertexID][]float64, visited *bitset, win temporal.Window, toDst map[graph.VertexID]float64, complete func(*pathNode)) []scored {
	var next []scored
	var edgeBuf []pathEdge
	windowed := win.Bounded()
	for _, p := range frontier {
		cur := p.vert
		visited.mark(p)
		edgeBuf = edgeBuf[:0]
		s.g.ForEachIncidentScan(cur, func(e *graph.EdgeScan) bool {
			if windowed && !win.ContainsScan(e) {
				return true // outside the time window: invisible to this query
			}
			edgeBuf = append(edgeBuf, pathEdge{id: e.ID, src: e.Src, dst: e.Dst, label: e.Label})
			return true
		})
		for _, e := range edgeBuf {
			nb := e.dst
			if nb == cur {
				nb = e.src
			}
			if visited.has(nb) {
				continue
			}
			np := &pathNode{
				parent: p,
				vert:   nb,
				edge:   e,
				depth:  p.depth + 1,
				divSum: p.divSum + divergence(topicOf, cur, nb),
			}
			if nb == dst {
				complete(np)
				continue
			}
			sc := scored{n: np}
			if toDst != nil {
				d, ok := toDst[nb]
				if !ok {
					d = divergence(topicOf, nb, dst)
					toDst[nb] = d
				}
				sc.lookahead = np.divSum + d
			}
			next = append(next, sc)
		}
		visited.unmark(p)
	}
	// Materialize vertex sequences for ordering out of one arena — a single
	// allocation per depth rather than one per candidate.
	if len(next) > 0 {
		total := 0
		for i := range next {
			total += next[i].n.depth + 1
		}
		arena := make([]graph.VertexID, total)
		off := 0
		for i := range next {
			end := off + next[i].n.depth + 1
			next[i].verts = arena[off:end]
			next[i].n.fillVerts(next[i].verts)
			off = end
		}
	}
	return next
}

// predConstraint resolves an Options.Predicate to its interned form.
// want=false means unconstrained; ok=false means the predicate string was
// never interned — no edge in any graph carries it, so no path can satisfy
// the constraint.
func predConstraint(predicate string) (sym symtab.SymID, want, ok bool) {
	if predicate == "" {
		return 0, false, true
	}
	sym, ok = symtab.Lookup(predicate)
	return sym, true, ok
}

// finish turns a completed chain into a deduplicated Path, honoring the
// predicate constraint.
func finish(np *pathNode, g *graph.Graph, pred symtab.SymID, wantPred bool, seen map[string]bool, found *[]Path) {
	if wantPred && !np.hasLabel(pred) {
		return
	}
	path := np.materialize(g)
	path.Coherence = np.divSum / float64(len(path.Edges))
	k := pathKey(path)
	if !seen[k] {
		seen[k] = true
		*found = append(*found, path)
	}
}

// TopK returns up to K paths from src to dst ordered by ascending coherence
// (ties: shorter first, then lexicographic vertex order).
func (s *Searcher) TopK(src, dst graph.VertexID, opt Options) []Path {
	opt = opt.withDefaults()
	if !s.g.HasVertex(src) || !s.g.HasVertex(dst) || src == dst {
		return nil
	}
	pred, wantPred, ok := predConstraint(opt.Predicate)
	if !ok {
		return nil // predicate never interned: no edge anywhere carries it
	}

	visited := s.visitedPool.Get().(*bitset)
	defer s.visitedPool.Put(visited)

	topicOf := s.topicsMap()
	frontier := []*pathNode{{vert: src}}
	var found []Path
	seen := map[string]bool{}
	toDst := map[graph.VertexID]float64{}

	for depth := 0; depth < opt.MaxDepth && len(frontier) > 0; depth++ {
		next := s.expand(frontier, dst, topicOf, visited, opt.Window, toDst, func(np *pathNode) {
			finish(np, s.g, pred, wantPred, seen, &found)
		})
		// Look-ahead pruning: keep the Beam candidates closest (in topic
		// space) to the target.
		slices.SortStableFunc(next, func(a, b scored) int {
			if c := cmp.Compare(a.lookahead, b.lookahead); c != 0 {
				return c
			}
			return slices.Compare(a.verts, b.verts)
		})
		if len(next) > opt.Beam {
			next = next[:opt.Beam]
		}
		frontier = frontier[:0]
		for _, sc := range next {
			frontier = append(frontier, sc.n)
		}
	}

	slices.SortStableFunc(found, func(a, b Path) int {
		if c := cmp.Compare(a.Coherence, b.Coherence); c != 0 {
			return c
		}
		return compareShorterFirst(a, b)
	})
	if len(found) > opt.K {
		found = found[:opt.K]
	}
	return found
}

// BFSPaths is the uninformed baseline: up to K shortest (fewest-hop) paths
// from src to dst, ranked by length then lexicographic order. Coherence is
// filled in from the searcher's topic map for comparison but does not
// influence the ranking.
func (s *Searcher) BFSPaths(src, dst graph.VertexID, opt Options) []Path {
	opt = opt.withDefaults()
	if !s.g.HasVertex(src) || !s.g.HasVertex(dst) || src == dst {
		return nil
	}
	pred, wantPred, ok := predConstraint(opt.Predicate)
	if !ok {
		return nil // predicate never interned: no edge anywhere carries it
	}

	visited := s.visitedPool.Get().(*bitset)
	defer s.visitedPool.Put(visited)

	topicOf := s.topicsMap()
	frontier := []*pathNode{{vert: src}}
	var found []Path
	seen := map[string]bool{}

	for depth := 0; depth < opt.MaxDepth && len(frontier) > 0; depth++ {
		next := s.expand(frontier, dst, topicOf, visited, opt.Window, nil, func(np *pathNode) {
			finish(np, s.g, pred, wantPred, seen, &found)
		})
		// Unbounded BFS fan-out explodes on dense graphs; cap like GraphX
		// jobs cap their frontier, but without topic guidance (by vertex
		// order, which is insertion order — a neutral choice).
		slices.SortStableFunc(next, func(a, b scored) int { return slices.Compare(a.verts, b.verts) })
		if len(next) > opt.Beam*4 {
			next = next[:opt.Beam*4]
		}
		frontier = frontier[:0]
		for _, sc := range next {
			frontier = append(frontier, sc.n)
		}
		if len(found) >= opt.K {
			break
		}
	}
	slices.SortStableFunc(found, compareShorterFirst)
	if len(found) > opt.K {
		found = found[:opt.K]
	}
	return found
}

func pathKey(p Path) string {
	key := make([]byte, 0, len(p.Edges)*8)
	for _, e := range p.Edges {
		id := e.ID
		for i := 0; i < 8; i++ {
			key = append(key, byte(id>>(8*i)))
		}
	}
	return string(key)
}

// compareShorterFirst orders paths by hop count, then lexicographically by
// vertex sequence.
func compareShorterFirst(a, b Path) int {
	if c := cmp.Compare(len(a.Edges), len(b.Edges)); c != 0 {
		return c
	}
	return slices.Compare(a.Vertices, b.Vertices)
}
