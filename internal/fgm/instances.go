package fgm

import "sort"

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
