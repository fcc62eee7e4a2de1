package fgm

import (
	"sort"
	"testing"
)

// The miner accessors and the instance matcher in this file serve tests and
// benchmarks only: the system reads patterns through FrequentPatterns,
// ClosedPatterns and Transitions. FindInstances is a backtracking subgraph
// matcher independent of the streaming kernel, which lets
// TestMinerFindInstancesAgreesWithSupport check the kernel's embedding counts
// against it.

// WindowLen returns the number of edges currently in the window.
func (m *Miner) WindowLen() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.windowLen()
}

// EmbeddingsTouched returns the cumulative number of embeddings enumerated —
// the work metric compared against the from-scratch baseline.
func (m *Miner) EmbeddingsTouched() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.emb
}

// edgeAt rebuilds the stream edge held in a slot.
func (m *Miner) edgeAt(slot int32) Edge {
	e := &m.edges[slot]
	return Edge{
		Src: e.src, Dst: e.dst, Time: e.time,
		SrcLabel: m.labels[e.sl], DstLabel: m.labels[e.dl], Label: m.labels[e.el],
	}
}

// window copies the resident edges in arrival order.
func (m *Miner) window() []Edge {
	out := make([]Edge, 0, m.windowLen())
	for _, slot := range m.queue[m.head:] {
		out = append(out, m.edgeAt(slot))
	}
	return out
}

// Support returns the current support of a pattern code.
func (m *Miner) Support(code string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	pid, ok := m.memo.pidOf[code]
	if !ok {
		return 0
	}
	return int(m.counts[pid])
}

// Instance is one concrete embedding of a pattern in a window: the mapping
// from pattern vertex positions to concrete vertex ids, plus the matched
// edges in pattern-edge order. Figure 7 of the paper shows such instances
// as the validation of a discovered pattern.
type Instance struct {
	Vertices []int64 // pattern position -> concrete vertex id
	Edges    []Edge  // aligned with Pattern.Edges
}

// FindInstances returns up to limit concrete instances of the pattern in
// the miner's current window, found by backtracking subgraph matching.
// limit <= 0 returns all instances.
func (m *Miner) FindInstances(p Pattern, limit int) []Instance {
	m.mu.RLock()
	edges := m.window()
	m.mu.RUnlock()
	return FindInstances(p, edges, limit)
}

// FindInstances matches a pattern against a set of stream edges. Matching
// is exact: vertex labels, edge labels and edge directions must all agree,
// pattern positions map injectively to concrete vertices, and pattern edges
// map to distinct concrete edges.
func FindInstances(p Pattern, edges []Edge, limit int) []Instance {
	if len(p.Edges) == 0 || len(p.VertexLabels) == 0 {
		return nil
	}
	// Index edges by label for candidate lookup.
	byLabel := map[string][]int{}
	for i, e := range edges {
		byLabel[e.Label] = append(byLabel[e.Label], i)
	}

	// Order pattern edges so each one after the first touches an
	// already-bound vertex (connected patterns always admit such an order).
	order := connectedEdgeOrder(p)

	var out []Instance
	binding := make([]int64, len(p.VertexLabels))
	bound := make([]bool, len(p.VertexLabels))
	usedEdge := make([]int, 0, len(p.Edges)) // concrete edge index per pattern edge (ordered)
	usedVertex := map[int64]int{}            // concrete vertex -> pattern position

	var rec func(step int) bool // returns true when the limit is reached
	rec = func(step int) bool {
		if step == len(order) {
			inst := Instance{Vertices: append([]int64{}, binding...), Edges: make([]Edge, len(p.Edges))}
			for k, pe := range order {
				inst.Edges[pe] = edges[usedEdge[k]]
			}
			out = append(out, inst)
			return limit > 0 && len(out) >= limit
		}
		pe := p.Edges[order[step]]
		for _, ei := range byLabel[pe.Label] {
			if containsInt(usedEdge, ei) {
				continue
			}
			e := edges[ei]
			if e.SrcLabel != p.VertexLabels[pe.Src] || e.DstLabel != p.VertexLabels[pe.Dst] {
				continue
			}
			// Check endpoint consistency with current binding.
			okSrc, okDst := checkBind(bound, binding, usedVertex, pe.Src, e.Src), false
			if okSrc {
				okDst = checkBind(bound, binding, usedVertex, pe.Dst, e.Dst)
			}
			if !okSrc || !okDst {
				continue
			}
			// Self-loop patterns need matching self-loop edges.
			if (pe.Src == pe.Dst) != (e.Src == e.Dst) {
				continue
			}
			undoSrc := bind(bound, binding, usedVertex, pe.Src, e.Src)
			undoDst := false
			if pe.Dst != pe.Src {
				undoDst = bind(bound, binding, usedVertex, pe.Dst, e.Dst)
			}
			usedEdge = append(usedEdge, ei)
			if rec(step + 1) {
				return true
			}
			usedEdge = usedEdge[:len(usedEdge)-1]
			if undoDst {
				unbind(bound, usedVertex, pe.Dst, e.Dst)
			}
			if undoSrc {
				unbind(bound, usedVertex, pe.Src, e.Src)
			}
		}
		return false
	}
	rec(0)
	return out
}

// checkBind reports whether pattern position pos may map to concrete
// vertex v under the current partial binding (injectively).
func checkBind(bound []bool, binding []int64, usedVertex map[int64]int, pos int, v int64) bool {
	if bound[pos] {
		return binding[pos] == v
	}
	if other, taken := usedVertex[v]; taken && other != pos {
		return false
	}
	return true
}

// bind maps pos to v, returning true if this call created the binding (and
// so must be undone on backtrack).
func bind(bound []bool, binding []int64, usedVertex map[int64]int, pos int, v int64) bool {
	if bound[pos] {
		return false
	}
	bound[pos] = true
	binding[pos] = v
	usedVertex[v] = pos
	return true
}

func unbind(bound []bool, usedVertex map[int64]int, pos int, v int64) {
	bound[pos] = false
	delete(usedVertex, v)
}

// connectedEdgeOrder returns an ordering of pattern edge indices in which
// every edge after the first shares a vertex with an earlier edge.
func connectedEdgeOrder(p Pattern) []int {
	n := len(p.Edges)
	order := make([]int, 0, n)
	used := make([]bool, n)
	seen := map[int]bool{}

	// deterministic start: lowest edge index
	order = append(order, 0)
	used[0] = true
	seen[p.Edges[0].Src] = true
	seen[p.Edges[0].Dst] = true
	for len(order) < n {
		next := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if seen[p.Edges[i].Src] || seen[p.Edges[i].Dst] {
				next = i
				break
			}
		}
		if next < 0 {
			// Disconnected pattern: append remaining in index order (the
			// matcher still works, just without the adjacency speedup).
			for i := 0; i < n; i++ {
				if !used[i] {
					next = i
					break
				}
			}
		}
		order = append(order, next)
		used[next] = true
		seen[p.Edges[next].Src] = true
		seen[p.Edges[next].Dst] = true
	}
	return order
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// SortInstances orders instances deterministically by their vertex ids.
func SortInstances(ins []Instance) {
	sort.Slice(ins, func(i, j int) bool {
		a, b := ins[i].Vertices, ins[j].Vertices
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

func chainPattern() Pattern {
	return Pattern{
		VertexLabels: []string{"C", "C", "P"},
		Edges: []PatternEdge{
			{Src: 0, Dst: 1, Label: "acquired"},
			{Src: 1, Dst: 2, Label: "manufactures"},
		},
	}
}

func chainEdges() []Edge {
	return []Edge{
		{Src: 1, Dst: 2, SrcLabel: "C", DstLabel: "C", Label: "acquired"},
		{Src: 2, Dst: 3, SrcLabel: "C", DstLabel: "P", Label: "manufactures"},
		{Src: 10, Dst: 20, SrcLabel: "C", DstLabel: "C", Label: "acquired"},
		{Src: 20, Dst: 30, SrcLabel: "C", DstLabel: "P", Label: "manufactures"},
		// distractors
		{Src: 5, Dst: 6, SrcLabel: "C", DstLabel: "P", Label: "manufactures"},
		{Src: 7, Dst: 8, SrcLabel: "C", DstLabel: "C", Label: "partnersWith"},
	}
}

func TestFindInstancesChain(t *testing.T) {
	ins := FindInstances(chainPattern(), chainEdges(), 0)
	if len(ins) != 2 {
		t.Fatalf("instances = %d, want 2: %+v", len(ins), ins)
	}
	SortInstances(ins)
	if ins[0].Vertices[0] != 1 || ins[0].Vertices[1] != 2 || ins[0].Vertices[2] != 3 {
		t.Fatalf("first instance = %+v", ins[0])
	}
	if ins[0].Edges[0].Label != "acquired" || ins[0].Edges[1].Label != "manufactures" {
		t.Fatalf("edges misaligned: %+v", ins[0].Edges)
	}
}

func TestFindInstancesLimit(t *testing.T) {
	ins := FindInstances(chainPattern(), chainEdges(), 1)
	if len(ins) != 1 {
		t.Fatalf("limit ignored: %d instances", len(ins))
	}
}

func TestFindInstancesInjective(t *testing.T) {
	// Pattern with two distinct C vertices both acquiring the same target
	// must not map both positions onto one concrete vertex.
	p := Pattern{
		VertexLabels: []string{"C", "C", "C"},
		Edges: []PatternEdge{
			{Src: 0, Dst: 2, Label: "acquired"},
			{Src: 1, Dst: 2, Label: "acquired"},
		},
	}
	edges := []Edge{
		{Src: 1, Dst: 9, SrcLabel: "C", DstLabel: "C", Label: "acquired"},
	}
	if ins := FindInstances(p, edges, 0); len(ins) != 0 {
		t.Fatalf("non-injective match accepted: %+v", ins)
	}
	edges = append(edges, Edge{Src: 2, Dst: 9, SrcLabel: "C", DstLabel: "C", Label: "acquired"})
	ins := FindInstances(p, edges, 0)
	if len(ins) != 2 { // (1,2,9) and (2,1,9)
		t.Fatalf("instances = %d, want 2", len(ins))
	}
}

func TestFindInstancesDirectionality(t *testing.T) {
	p := Pattern{
		VertexLabels: []string{"C", "C"},
		Edges:        []PatternEdge{{Src: 0, Dst: 1, Label: "acquired"}},
	}
	edges := []Edge{{Src: 5, Dst: 6, SrcLabel: "C", DstLabel: "C", Label: "acquired"}}
	ins := FindInstances(p, edges, 0)
	if len(ins) != 1 || ins[0].Vertices[0] != 5 {
		t.Fatalf("instances = %+v", ins)
	}
}

func TestFindInstancesSelfLoop(t *testing.T) {
	p := Pattern{
		VertexLabels: []string{"C"},
		Edges:        []PatternEdge{{Src: 0, Dst: 0, Label: "references"}},
	}
	edges := []Edge{
		{Src: 1, Dst: 1, SrcLabel: "C", DstLabel: "C", Label: "references"},
		{Src: 2, Dst: 3, SrcLabel: "C", DstLabel: "C", Label: "references"}, // not a self-loop
	}
	ins := FindInstances(p, edges, 0)
	if len(ins) != 1 || ins[0].Vertices[0] != 1 {
		t.Fatalf("self-loop instances = %+v", ins)
	}
}

func TestMinerFindInstancesAgreesWithSupport(t *testing.T) {
	m := NewMiner(Config{MaxEdges: 2, MinSupport: 1})
	for _, e := range chainEdges() {
		m.Add(e)
	}
	for _, p := range m.FrequentPatterns() {
		ins := m.FindInstances(p, 0)
		if len(ins) != p.Support {
			t.Fatalf("pattern %s: support %d but %d instances", p, p.Support, len(ins))
		}
	}
}

func TestFindInstancesEmptyPattern(t *testing.T) {
	if ins := FindInstances(Pattern{}, chainEdges(), 0); ins != nil {
		t.Fatalf("empty pattern matched: %+v", ins)
	}
}
