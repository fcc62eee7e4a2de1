// Package fgm implements NOUS's major research contribution (§3.5): a
// distributed algorithm for frequent graph mining over a stream of triples.
// The streaming miner maintains, incrementally under both edge arrival and
// sliding-window eviction, the embedding counts of every connected pattern
// up to a size bound, and reports the closed frequent patterns of the
// current window. A read makes one pass over the count table: a lattice
// links each pattern to the patterns one edge larger that contain it, filled
// by reads and never by ingest, and a k-bounded heap keeps the best closed
// ones. Patterns abstract entities to their types, so the miner
// simultaneously covers the curated KB and extracted knowledge — the
// "combining both structures" property the paper highlights.
//
// The from-scratch baseline the paper benchmarks against (Arabesque-style
// re-enumeration of every window, reporting ~3× speedup) and a
// transaction-setting gSpan survive only as test references
// (baseline_test.go, gspan_test.go); TestClaimC1StreamingWorkBeatsRescan
// checks the claim. So does the pairwise closedness filter the lattice
// replaced (closedOf in reference_test.go), which the differential tests
// hold ClosedPatterns to.
package fgm

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Edge is one typed, labeled stream edge: a triple whose endpoints carry
// entity identities (for embedding counting) and type labels (for pattern
// abstraction). An entity is expected to carry one type; should a stream
// disagree with itself, each embedding abstracts the entity to the type its
// own oldest edge at that entity asserts.
type Edge struct {
	Src, Dst           int64  // entity identities
	SrcLabel, DstLabel string // entity types
	Label              string // predicate
	// ID places the edge in the stream: its seq is ID when that is past
	// every earlier edge's seq, else the next seq after them. Edges without
	// an ID therefore get consecutive seqs; the pipeline passes fact IDs.
	// Remove names an edge by its seq.
	ID int64
	// Time is unused: an edge leaves the window by Remove or by the count
	// window, never by its time.
	Time int64
}

// PatternEdge is one edge of an abstract pattern between canonical vertex
// positions.
type PatternEdge struct {
	Src, Dst int
	Label    string
}

// Pattern is a connected, labeled, directed multigraph abstraction with a
// canonical code and its current support.
type Pattern struct {
	VertexLabels []string
	Edges        []PatternEdge
	Support      int
	Code         string
}

// String renders a pattern as the paper's figures do:
// (Company a)-[acquired]->(Company b); (Company b)-[manufactures]->(Product c).
func (p Pattern) String() string {
	varName := func(i int) string { return string(rune('a' + i)) }
	parts := make([]string, len(p.Edges))
	for i, e := range p.Edges {
		parts[i] = fmt.Sprintf("(%s %s)-[%s]->(%s %s)",
			p.VertexLabels[e.Src], varName(e.Src), e.Label, p.VertexLabels[e.Dst], varName(e.Dst))
	}
	return strings.Join(parts, "; ")
}

// rawEdge is one edge of a small graph whose vertices are numbered by raw
// position (for an embedding: ascending concrete vertex id).
type rawEdge struct {
	src, dst int
	label    string
}

// canonicalForm finds the canonical code of a small labeled graph given in
// raw positional form. It renders the graph as "L0,L1|s>d:label;s>d:label"
// (edges in ascending byte order) under every vertex permutation and keeps
// the smallest rendering, so it is a pure function of the raw form; the
// miner calls it once per distinct raw shape (see shapeMemo).
func canonicalForm(vlabels []string, edges []rawEdge) string {
	var best, sig []byte
	rendered := make([][]byte, len(edges)) // scratch, reused across permutations
	rawAt := make([]int, len(vlabels))     // likewise: position -> raw vertex
	permute(len(vlabels), func(p []int) {
		for raw, pos := range p {
			rawAt[pos] = raw
		}
		sig = sig[:0]
		for pos, raw := range rawAt {
			if pos > 0 {
				sig = append(sig, ',')
			}
			sig = append(sig, vlabels[raw]...)
		}
		sig = append(sig, '|')
		// Most permutations already lose on the vertex labels.
		if best != nil && bytes.Compare(sig, best[:min(len(sig), len(best))]) > 0 {
			return
		}
		sig = appendEdges(sig, rendered, edges, p)
		if best == nil || bytes.Compare(sig, best) < 0 {
			best = append(best[:0], sig...)
		}
	})
	return string(best)
}

// appendEdges renders the edges of a raw graph under a raw→position
// permutation as "s>d:label;s>d:label", in ascending byte order.
func appendEdges(sig []byte, rendered [][]byte, edges []rawEdge, perm []int) []byte {
	for i, e := range edges {
		r := strconv.AppendInt(rendered[i][:0], int64(perm[e.src]), 10)
		r = append(r, '>')
		r = strconv.AppendInt(r, int64(perm[e.dst]), 10)
		r = append(r, ':')
		r = append(r, e.label...)
		j := i
		for ; j > 0 && bytes.Compare(rendered[j-1], r) > 0; j-- {
			rendered[j] = rendered[j-1]
		}
		rendered[j] = r // headers moved, so each buffer is still in one slot only
	}
	for i, r := range rendered {
		if i > 0 {
			sig = append(sig, ';')
		}
		sig = append(sig, r...)
	}
	return sig
}

// patternFromSig parses a signature back into a Pattern.
func patternFromSig(sig string) Pattern {
	var p Pattern
	parts := strings.SplitN(sig, "|", 2)
	if parts[0] != "" {
		p.VertexLabels = strings.Split(parts[0], ",")
	}
	if len(parts) < 2 || parts[1] == "" {
		return p
	}
	for _, es := range strings.Split(parts[1], ";") {
		var s, d int
		var label string
		if i := strings.IndexByte(es, ':'); i >= 0 {
			label = es[i+1:]
			// Anything but "s>d" leaves the positions at zero.
			if from, to, ok := strings.Cut(es[:i], ">"); ok {
				s, _ = strconv.Atoi(from)
				d, _ = strconv.Atoi(to)
			}
		}
		p.Edges = append(p.Edges, PatternEdge{Src: s, Dst: d, Label: label})
	}
	return p
}

func identityPerm(k int) []int {
	p := make([]int, k)
	for i := range p {
		p[i] = i
	}
	return p
}

// permute calls fn with every permutation of [0,k). fn must copy p if it
// keeps it.
func permute(k int, fn func(p []int)) {
	p := identityPerm(k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			fn(p)
			return
		}
		for j := i; j < k; j++ {
			p[i], p[j] = p[j], p[i]
			rec(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
	rec(0)
}
