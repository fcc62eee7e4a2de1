package fgm

import (
	"fmt"
	"sort"
)

// gSpan (Yan & Han, ICDM'02) is the classical transaction-setting frequent
// subgraph miner the paper contrasts its streaming algorithm with. Nothing in
// the system mines transactions, so it lives here as an independent
// reference: TestGSpanMatchesMineWindowOnPartitionedStream checks the
// streaming kernel against it. This implementation performs pattern growth
// over projections (embedding lists per transaction), with duplicate search
// branches pruned by canonical-form de-duplication — equivalent in effect to
// gSpan's minimum-DFS-code test, and exact at the small pattern sizes used
// here. Support is the number of transactions containing at least one
// embedding.

// TxEdge is a directed labeled edge inside one transaction graph.
type TxEdge struct {
	Src, Dst int
	Label    string
}

// TxGraph is one transaction: a small directed labeled graph.
type TxGraph struct {
	VertexLabels []string
	Edges        []TxEdge
}

// gspanEmbedding maps a pattern into a transaction: which transaction,
// which concrete vertex per pattern position, which edges used.
type gspanEmbedding struct {
	tx    int
	verts []int  // pattern position -> tx vertex
	used  uint64 // bitset over tx edge indices (transactions are small)
}

// GSpan mines frequent patterns from a database of transaction graphs.
// Transactions with more than 64 edges are rejected (the projection bitset
// is fixed-width; NOUS transactions are per-entity neighborhoods and stay
// far below that).
func GSpan(db []TxGraph, minSupport, maxEdges int) ([]Pattern, error) {
	for i, tx := range db {
		if len(tx.Edges) > 64 {
			return nil, fmt.Errorf("fgm: transaction %d has %d edges (max 64)", i, len(tx.Edges))
		}
		for _, e := range tx.Edges {
			if e.Src < 0 || e.Src >= len(tx.VertexLabels) || e.Dst < 0 || e.Dst >= len(tx.VertexLabels) {
				return nil, fmt.Errorf("fgm: transaction %d has edge endpoints out of range", i)
			}
		}
	}
	if maxEdges <= 0 {
		maxEdges = 3
	}
	g := &gspanRun{db: db, minSup: minSupport, maxEdges: maxEdges,
		results: map[string]Pattern{}, visited: map[string]bool{}}

	// Seed: all frequent single-edge patterns. Self-loops are a distinct
	// seed shape even when the endpoint labels match.
	type seedKey struct {
		sl, el, dl string
		self       bool
	}
	seeds := map[seedKey][]gspanEmbedding{}
	for txi, tx := range db {
		for ei, e := range tx.Edges {
			k := seedKey{tx.VertexLabels[e.Src], e.Label, tx.VertexLabels[e.Dst], e.Src == e.Dst}
			var emb gspanEmbedding
			emb.tx = txi
			if k.self {
				emb.verts = []int{e.Src}
			} else {
				emb.verts = []int{e.Src, e.Dst}
			}
			emb.used = 1 << uint(ei)
			seeds[k] = append(seeds[k], emb)
		}
	}
	var keys []seedKey
	for k := range seeds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.sl != b.sl {
			return a.sl < b.sl
		}
		if a.el != b.el {
			return a.el < b.el
		}
		if a.dl != b.dl {
			return a.dl < b.dl
		}
		return !a.self && b.self
	})
	for _, k := range keys {
		embs := seeds[k]
		if txSupport(embs) < minSupport {
			continue
		}
		var p Pattern
		if k.self {
			p = Pattern{VertexLabels: []string{k.sl}, Edges: []PatternEdge{{0, 0, k.el}}}
		} else {
			p = Pattern{VertexLabels: []string{k.sl, k.dl}, Edges: []PatternEdge{{0, 1, k.el}}}
		}
		g.grow(p, embs)
	}

	out := make([]Pattern, 0, len(g.results))
	for _, p := range g.results {
		out = append(out, p)
	}
	sortPatterns(out)
	return out, nil
}

// GSpanClosed mines and filters to closed patterns.
func GSpanClosed(db []TxGraph, minSupport, maxEdges int) ([]Pattern, error) {
	all, err := GSpan(db, minSupport, maxEdges)
	if err != nil {
		return nil, err
	}
	return closedOf(all), nil
}

type gspanRun struct {
	db       []TxGraph
	minSup   int
	maxEdges int
	results  map[string]Pattern
	visited  map[string]bool // canonical codes already expanded
}

// grow records a frequent pattern and tries all one-edge extensions of its
// embeddings.
func (g *gspanRun) grow(p Pattern, embs []gspanEmbedding) {
	code := canonOfPattern(p)
	if g.visited[code] {
		return
	}
	g.visited[code] = true
	sup := txSupport(embs)
	if sup < g.minSup {
		return
	}
	stored := p
	stored.Code = code
	stored.Support = sup
	g.results[code] = stored
	if len(p.Edges) >= g.maxEdges {
		return
	}

	// Extension candidates: for every embedding, every tx edge incident to
	// a mapped vertex and not yet used. Group by (pattern extension shape).
	type extKey struct {
		fromPos int    // pattern position the edge attaches to
		out     bool   // true: edge leaves fromPos
		label   string // edge label
		otherL  string // other endpoint's vertex label
		toPos   int    // existing pattern position of other endpoint, or -1 (new vertex)
	}
	extEmbs := map[extKey][]gspanEmbedding{}
	for _, emb := range embs {
		tx := g.db[emb.tx]
		posOf := map[int]int{}
		for pos, v := range emb.verts {
			posOf[v] = pos
		}
		for ei, e := range tx.Edges {
			if emb.used&(1<<uint(ei)) != 0 {
				continue
			}
			srcPos, hasSrc := posOf[e.Src]
			dstPos, hasDst := posOf[e.Dst]
			if !hasSrc && !hasDst {
				continue // not incident to the embedding
			}
			var k extKey
			var newEmb gspanEmbedding
			newEmb.tx = emb.tx
			newEmb.used = emb.used | 1<<uint(ei)
			switch {
			case hasSrc && hasDst:
				k = extKey{fromPos: srcPos, out: true, label: e.Label, otherL: tx.VertexLabels[e.Dst], toPos: dstPos}
				newEmb.verts = append([]int{}, emb.verts...)
			case hasSrc:
				k = extKey{fromPos: srcPos, out: true, label: e.Label, otherL: tx.VertexLabels[e.Dst], toPos: -1}
				newEmb.verts = append(append([]int{}, emb.verts...), e.Dst)
			default: // hasDst
				k = extKey{fromPos: dstPos, out: false, label: e.Label, otherL: tx.VertexLabels[e.Src], toPos: -1}
				newEmb.verts = append(append([]int{}, emb.verts...), e.Src)
			}
			extEmbs[k] = append(extEmbs[k], newEmb)
		}
	}

	var keys []extKey
	for k := range extEmbs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.fromPos != b.fromPos {
			return a.fromPos < b.fromPos
		}
		if a.toPos != b.toPos {
			return a.toPos < b.toPos
		}
		if a.label != b.label {
			return a.label < b.label
		}
		if a.otherL != b.otherL {
			return a.otherL < b.otherL
		}
		return a.out && !b.out
	})

	for _, k := range keys {
		childEmbs := extEmbs[k]
		if txSupport(childEmbs) < g.minSup {
			continue
		}
		child := Pattern{
			VertexLabels: append([]string{}, p.VertexLabels...),
			Edges:        append([]PatternEdge{}, p.Edges...),
		}
		toPos := k.toPos
		if toPos < 0 {
			child.VertexLabels = append(child.VertexLabels, k.otherL)
			toPos = len(child.VertexLabels) - 1
		}
		if k.out {
			child.Edges = append(child.Edges, PatternEdge{Src: k.fromPos, Dst: toPos, Label: k.label})
		} else {
			child.Edges = append(child.Edges, PatternEdge{Src: toPos, Dst: k.fromPos, Label: k.label})
		}
		g.grow(child, childEmbs)
	}
}

// txSupport counts distinct transactions among embeddings.
func txSupport(embs []gspanEmbedding) int {
	seen := map[int]bool{}
	for _, e := range embs {
		seen[e.tx] = true
	}
	return len(seen)
}

// canonOfPattern returns the canonical code of an abstract pattern; its
// positions already are a raw vertex numbering.
func canonOfPattern(p Pattern) string {
	edges := make([]rawEdge, len(p.Edges))
	for i, e := range p.Edges {
		edges[i] = rawEdge{src: e.Src, dst: e.Dst, label: e.Label}
	}
	code, _ := canonicalForm(p.VertexLabels, edges)
	return code
}

// TransactionsFromEdges converts a window of stream edges into per-vertex
// neighborhood transactions — the reduction NOUS uses to compare the
// streaming miner with transaction-setting systems. Each vertex with at
// least minDegree incident edges contributes one transaction containing its
// 1-hop neighborhood subgraph.
func TransactionsFromEdges(edges []Edge, minDegree int) []TxGraph {
	adj := map[int64][]Edge{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e)
		if e.Dst != e.Src {
			adj[e.Dst] = append(adj[e.Dst], e)
		}
	}
	var centers []int64
	for v, es := range adj {
		if len(es) >= minDegree {
			centers = append(centers, v)
		}
	}
	sort.Slice(centers, func(i, j int) bool { return centers[i] < centers[j] })

	var out []TxGraph
	for _, c := range centers {
		var tx TxGraph
		idx := map[int64]int{}
		vertexOf := func(v int64, label string) int {
			if i, ok := idx[v]; ok {
				return i
			}
			idx[v] = len(tx.VertexLabels)
			tx.VertexLabels = append(tx.VertexLabels, label)
			return idx[v]
		}
		es := adj[c]
		if len(es) > 64 {
			es = es[:64]
		}
		for _, e := range es {
			s := vertexOf(e.Src, e.SrcLabel)
			d := vertexOf(e.Dst, e.DstLabel)
			tx.Edges = append(tx.Edges, TxEdge{Src: s, Dst: d, Label: e.Label})
		}
		out = append(out, tx)
	}
	return out
}
