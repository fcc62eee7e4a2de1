// Package pathsearch implements NOUS's question-answering graph search
// (§3.6): given a source entity, a target entity and an optional
// relationship constraint, it returns the top-K paths explaining how the
// two are related. The walk performs a look-ahead at every hop — candidate
// nodes are ordered by the Jensen–Shannon divergence between their LDA topic
// distribution and the target's — and every complete path is scored by its
// topic coherence (mean divergence along the path, lower is better). A
// breadth-first shortest-path baseline is provided for the evaluation.
//
// The beam costs what it keeps. A depth's candidates are flat values (no
// pointers, no allocation) offered to a bounded max-heap that retains only
// the beam; only survivors and completed paths become nodes. Partial paths
// are immutable linked nodes sharing their prefixes, each carrying the rank
// of its vertex sequence within its depth, so candidates compare sequences
// as (parent rank, neighbour) without building them. The per-path visited
// set is a pooled bitset repopulated from the node chain.
package pathsearch

import (
	"cmp"
	"slices"
	"sync"

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

// Topics gives a vertex's LDA topic distribution, or nil when it has none.
// It must be safe for concurrent use; a search asks for each vertex once.
type Topics func(graph.VertexID) []float64

// Searcher runs coherence-guided path queries over a property graph. It is
// safe for concurrent use, including against a graph under mutation.
type Searcher struct {
	g      *graph.Graph
	topics Topics

	// visitedPool recycles per-query bitsets across queries.
	visitedPool sync.Pool
}

// New returns a searcher. topicOf gives vertices' topic distributions; it
// may be nil, in which case the search degrades to an uninformed beam.
func New(g *graph.Graph, topicOf Topics) *Searcher {
	s := &Searcher{g: g, topics: topicOf}
	s.visitedPool.New = func() any { return &bitset{} }
	return s
}

// divergence returns the topic JS divergence between two vectors, or 0 when
// either is missing.
func divergence(ta, tb []float64) float64 {
	if ta == nil || tb == nil || len(ta) != len(tb) {
		return 0
	}
	return topics.JSDivergence(ta, tb)
}

// pathEdge is the compact form a partial path stores per hop: enough to
// rank, deduplicate and constrain paths (ID, endpoints, interned predicate)
// without carrying a materialized graph.Edge — weights, timestamps and rows
// are fetched once per *returned* path, not per beam candidate.
type pathEdge struct {
	id       graph.EdgeID
	src, dst graph.VertexID
	label    symtab.SymID
}

// pathNode is an immutable node in a prefix-sharing tree of partial paths.
// The tail shares every ancestor with its siblings.
type pathNode struct {
	parent *pathNode
	vert   graph.VertexID
	edge   pathEdge // edge connecting parent.vert to vert (zero at the root)
	depth  int      // hops from the root
	divSum float64
	// rank orders the node's vertex sequence among the nodes of its depth:
	// equal sequences share a rank, and a lower rank is lexicographically
	// smaller. Nodes of one depth have sequences of one length, so a child's
	// sequence compares as (parent rank, vert).
	rank int32
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

// candidate is one open extension of a frontier node. It holds no pointers,
// so the beam heap moves it without write barriers, and a candidate the beam
// drops costs no allocation.
type candidate struct {
	lookahead float64
	divSum    float64
	gen       int // generation order within the depth
	nb        graph.VertexID
	edge      pathEdge
	rank      int32 // sequence rank of the extended frontier node
	from      int32 // index of that frontier node
}

// compareCandidates is the beam order: lookahead, then vertex sequence as
// (parent rank, neighbour), then generation order. It is total, and its
// first k candidates are exactly the prefix a stable sort by (lookahead,
// vertex sequence) keeps.
func compareCandidates(a, b *candidate) int {
	if c := cmp.Compare(a.lookahead, b.lookahead); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	if c := cmp.Compare(a.nb, b.nb); c != 0 {
		return c
	}
	return cmp.Compare(a.gen, b.gen)
}

// offer adds c to the bounded max-heap h, which keeps the keep smallest
// candidates offered with the worst of them at the root, and returns h.
func offer(h []candidate, keep int, c candidate) []candidate {
	if len(h) < keep {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if compareCandidates(&h[p], &h[i]) > 0 {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if compareCandidates(&c, &h[0]) > 0 {
		return h // after every kept candidate
	}
	h[0] = c
	for i := 0; ; {
		w := 2*i + 1
		if w >= len(h) {
			break
		}
		if r := w + 1; r < len(h) && compareCandidates(&h[r], &h[w]) > 0 {
			w = r
		}
		if compareCandidates(&h[i], &h[w]) > 0 {
			break
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
	return h
}

// query is one search's state: its frontier (the nodes of the current
// depth), the scratch buffers it reuses across depths, and the completed
// paths in completion order.
type query struct {
	g      *graph.Graph
	dst    graph.VertexID
	topics Topics
	// verts holds what the search knows of each vertex it met: its topic
	// vector as first read, so one search scores a vertex with one vector
	// even while the graph changes, and its divergence to dst once the
	// look-ahead needed it (many candidates share a tail).
	verts   map[graph.VertexID]vertexTopic
	dstVec  []float64
	ahead   bool // rank by look-ahead (TopK); false leaves vertex order (BFS)
	win     temporal.Window
	visited *bitset

	frontier []pathNode
	edges    []pathEdge
	beam     []candidate

	pred     symtab.SymID
	wantPred bool
	seen     map[string]bool
	found    []Path
}

// newQuery sets up a search from src to dst. ok=false means no path can
// exist: a missing or equal endpoint, or a predicate that was never
// interned, which no edge in any graph carries. The caller returns
// q.visited to the pool.
func (s *Searcher) newQuery(src, dst graph.VertexID, opt Options) (q *query, ok bool) {
	if !s.g.HasVertex(src) || !s.g.HasVertex(dst) || src == dst {
		return nil, false
	}
	q = &query{
		g:        s.g,
		dst:      dst,
		topics:   s.topics,
		verts:    map[graph.VertexID]vertexTopic{},
		win:      opt.Window,
		frontier: []pathNode{{vert: src}},
		seen:     map[string]bool{},
	}
	if opt.Predicate != "" {
		if q.pred, ok = symtab.Lookup(opt.Predicate); !ok {
			return nil, false
		}
		q.wantPred = true
	}
	q.dstVec = q.vertex(dst).vec
	q.visited = s.visitedPool.Get().(*bitset)
	return q, true
}

// vertexTopic is one vertex's entry in a search's verts.
type vertexTopic struct {
	vec      []float64
	toDst    float64
	hasToDst bool
}

// vertex returns the search's entry for id, reading its topic vector from
// the searcher's source the first time.
func (q *query) vertex(id graph.VertexID) vertexTopic {
	v, ok := q.verts[id]
	if !ok {
		if q.topics != nil {
			v.vec = q.topics(id)
		}
		q.verts[id] = v
	}
	return v
}

// expand grows every frontier node by one hop. Completed paths (reaching
// dst) are collected as they are generated; of the open extensions, the
// first keep in beam order become the next frontier. Each extension's
// lookahead is divSum + divergence(tail, dst) when ahead is set (TopK), and
// zero otherwise, which leaves vertex order (BFS).
//
// Candidates are offered to a bounded heap instead of being sorted: a depth
// may generate a thousand for a beam of 32. Only the survivors are sorted,
// at the end, and only they become nodes. The visited bitset is repopulated
// per frontier node from its chain. Incident edges are snapshotted as
// compact slab projections so the graph's read lock is held only for the
// copy, not for the divergence math; a long expansion must not stall
// concurrent writers.
func (q *query) expand(keep int) {
	windowed := q.win.Bounded()
	q.beam = q.beam[:0]
	gen := 0
	for i := range q.frontier {
		p := &q.frontier[i]
		cur := p.vert
		curVec := q.vertex(cur).vec
		q.visited.mark(p)
		q.edges = q.edges[:0]
		q.g.ForEachIncidentScan(cur, func(e *graph.EdgeScan) bool {
			if windowed && !q.win.ContainsScan(e) {
				return true // outside the time window: invisible to this query
			}
			q.edges = append(q.edges, pathEdge{id: e.ID, src: e.Src, dst: e.Dst, label: e.Label})
			return true
		})
		for _, e := range q.edges {
			nb := e.dst
			if nb == cur {
				nb = e.src
			}
			if q.visited.has(nb) {
				continue
			}
			t := q.vertex(nb)
			divSum := p.divSum + divergence(curVec, t.vec)
			if nb == q.dst {
				q.collect(&pathNode{parent: p, vert: nb, edge: e, depth: p.depth + 1, divSum: divSum})
				continue
			}
			c := candidate{divSum: divSum, gen: gen, nb: nb, edge: e, rank: p.rank, from: int32(i)}
			gen++
			if q.ahead {
				if !t.hasToDst {
					t.toDst, t.hasToDst = divergence(t.vec, q.dstVec), true
					q.verts[nb] = t
				}
				c.lookahead = divSum + t.toDst
			}
			q.beam = offer(q.beam, keep, c)
		}
		q.visited.unmark(p)
	}

	slices.SortFunc(q.beam, func(a, b candidate) int { return compareCandidates(&a, &b) })
	next := make([]pathNode, len(q.beam))
	bySeq := make([]*pathNode, len(q.beam))
	for i := range q.beam {
		c := &q.beam[i]
		parent := &q.frontier[c.from]
		next[i] = pathNode{parent: parent, vert: c.nb, edge: c.edge, depth: parent.depth + 1, divSum: c.divSum}
		bySeq[i] = &next[i]
	}
	// Rank the survivors' vertex sequences for the next depth's comparisons.
	slices.SortFunc(bySeq, func(a, b *pathNode) int {
		if c := cmp.Compare(a.parent.rank, b.parent.rank); c != 0 {
			return c
		}
		return cmp.Compare(a.vert, b.vert)
	})
	rank := int32(0)
	for i, n := range bySeq {
		if i > 0 && (n.parent.rank != bySeq[i-1].parent.rank || n.vert != bySeq[i-1].vert) {
			rank++
		}
		n.rank = rank
	}
	q.frontier = next
}

// collect turns a completed chain into a deduplicated Path, honoring the
// predicate constraint.
func (q *query) collect(np *pathNode) {
	if q.wantPred && !np.hasLabel(q.pred) {
		return
	}
	path := np.materialize(q.g)
	path.Coherence = np.divSum / float64(len(path.Edges))
	k := pathKey(path)
	if !q.seen[k] {
		q.seen[k] = true
		q.found = append(q.found, path)
	}
}

// TopK returns up to K paths from src to dst ordered by ascending coherence
// (ties: shorter first, then lexicographic vertex order).
func (s *Searcher) TopK(src, dst graph.VertexID, opt Options) []Path {
	opt = opt.withDefaults()
	q, ok := s.newQuery(src, dst, opt)
	if !ok {
		return nil
	}
	defer s.visitedPool.Put(q.visited)
	q.ahead = true
	for depth := 0; depth < opt.MaxDepth && len(q.frontier) > 0; depth++ {
		// Look-ahead pruning: keep the Beam candidates closest (in topic
		// space) to the target.
		q.expand(opt.Beam)
	}

	found := q.found
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
// filled in from the searcher's topic vectors for comparison but does not
// influence the ranking.
func (s *Searcher) BFSPaths(src, dst graph.VertexID, opt Options) []Path {
	opt = opt.withDefaults()
	q, ok := s.newQuery(src, dst, opt)
	if !ok {
		return nil
	}
	defer s.visitedPool.Put(q.visited)
	for depth := 0; depth < opt.MaxDepth && len(q.frontier) > 0; depth++ {
		// Unbounded BFS fan-out explodes on dense graphs; cap like GraphX
		// jobs cap their frontier, but without topic guidance (by vertex
		// order, which is insertion order — a neutral choice).
		q.expand(opt.Beam * 4)
		if len(q.found) >= opt.K {
			break
		}
	}
	found := q.found
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
