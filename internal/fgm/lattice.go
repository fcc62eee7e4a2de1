package fgm

import (
	"sort"
	"sync"
)

// lattice links every interned pattern to the interned patterns one edge
// larger that contain it: the super-patterns closedness compares with. Reads
// fill it and the ingest path never touches it, so a pattern's links cost
// one canonicalForm per edge, paid once by the first read after the pattern
// is interned.
type lattice struct {
	mu     sync.Mutex // readers fill it under the miner's read lock
	linked int        // patterns [0, linked) have their sub-patterns linked
	supers [][]int32  // by pattern id: the ids one edge larger that contain it
	// pending holds, by code, links to sub-patterns not interned yet: with
	// edges that disagree about an entity's type, a super-pattern can be
	// met before one of its sub-patterns.
	pending map[string][]int32
}

// fill links the patterns interned since the last fill. The caller holds
// the miner's read lock, so the pattern table cannot grow meanwhile, and
// once fill returns no other reader writes to the lattice either.
func (l *lattice) fill(memo *shapeMemo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(memo.patterns)
	if l.linked == n {
		return
	}
	l.supers = append(l.supers, make([][]int32, n-len(l.supers))...)
	for pid := l.linked; pid < n; pid++ {
		p := &memo.patterns[pid]
		if ps, ok := l.pending[p.Code]; ok {
			l.supers[pid] = append(l.supers[pid], ps...)
			delete(l.pending, p.Code)
		}
		for i := range p.Edges {
			code, ok := subPatternCode(p, i)
			if !ok {
				continue
			}
			if sub, ok := memo.pidOf[code]; ok {
				l.supers[sub] = appendOnce(l.supers[sub], int32(pid))
			} else {
				l.pending[code] = appendOnce(l.pending[code], int32(pid))
			}
		}
	}
	l.linked = n
}

// appendOnce appends pid unless it is already last: the links of one
// super-pattern are appended together, so two of its edges whose removal
// gives the same sub-pattern link it once.
func appendOnce(ids []int32, pid int32) []int32 {
	if n := len(ids); n > 0 && ids[n-1] == pid {
		return ids
	}
	return append(ids, pid)
}

// subPatternCode returns the canonical code of p less its edge i and any
// vertex only that edge touched. It reports false when nothing is left or
// what is left is disconnected, a shape no count table holds.
func subPatternCode(p *Pattern, i int) (string, bool) {
	if len(p.Edges) < 2 {
		return "", false
	}
	at := make([]int, len(p.VertexLabels)) // pattern position -> raw position + 1
	var vlabels []string
	raw := func(v int) int {
		if at[v] == 0 {
			vlabels = append(vlabels, p.VertexLabels[v])
			at[v] = len(vlabels)
		}
		return at[v] - 1
	}
	edges := make([]rawEdge, 0, len(p.Edges)-1)
	for j, e := range p.Edges {
		if j != i {
			edges = append(edges, rawEdge{src: raw(e.Src), dst: raw(e.Dst), label: e.Label})
		}
	}
	if !connected(len(vlabels), edges) {
		return "", false
	}
	code := canonicalForm(vlabels, edges)
	return code, true
}

// connected reports whether the edges join all n vertices into one graph.
func connected(n int, edges []rawEdge) bool {
	root := identityPerm(n)
	find := func(v int) int {
		for root[v] != v {
			v = root[v]
		}
		return v
	}
	parts := n
	for _, e := range edges {
		if a, b := find(e.src), find(e.dst); a != b {
			root[a] = b
			parts--
		}
	}
	return parts == 1
}

// ranked is a candidate of a patterns read: a pattern id and its support.
type ranked struct {
	pid     int32
	support int
}

// topK keeps the k best candidates offered to it, in a heap with the worst
// at the root, or every candidate when k <= 0.
type topK struct {
	m     *Miner
	k     int
	items []ranked
}

// before orders candidates as sortPatterns orders patterns.
func (t *topK) before(a, b ranked) bool {
	pats := t.m.memo.patterns
	return outranks(a.support, &pats[a.pid], b.support, &pats[b.pid])
}

// admits reports whether r would enter the selection.
func (t *topK) admits(r ranked) bool {
	return t.k <= 0 || len(t.items) < t.k || t.before(r, t.items[0])
}

// add inserts an admitted candidate; a full heap drops its root for it.
func (t *topK) add(r ranked) {
	h := t.items
	switch {
	case t.k <= 0:
		t.items = append(h, r)
	case len(h) < t.k:
		h = append(h, r)
		for i := len(h) - 1; i > 0; {
			up := (i - 1) / 2
			if t.before(h[i], h[up]) {
				break
			}
			h[i], h[up] = h[up], h[i]
			i = up
		}
		t.items = h
	default:
		h[0] = r
		for i := 0; ; {
			w := 2*i + 1 // the worse child
			if w >= len(h) {
				break
			}
			if c := w + 1; c < len(h) && t.before(h[w], h[c]) {
				w = c
			}
			if t.before(h[w], h[i]) {
				break
			}
			h[i], h[w] = h[w], h[i]
			i = w
		}
	}
}

// patterns returns the selection best first, nil when it is empty.
func (t *topK) patterns() []Pattern {
	if len(t.items) == 0 {
		return nil
	}
	sort.Slice(t.items, func(i, j int) bool { return t.before(t.items[i], t.items[j]) })
	out := make([]Pattern, len(t.items))
	for i, r := range t.items {
		out[i] = t.m.memo.patterns[r.pid]
		out[i].Support = r.support
	}
	return out
}
