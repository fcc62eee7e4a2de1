package fgm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// This file pins the integer embedding kernel to the seed implementation's
// exact semantics. refMiner reproduces the original string-signature miner —
// a closure-driven DFS over edge supersets de-duplicated by edge-id set,
// canonical codes found per embedding through fmt/sort/strings signatures,
// counts in maps keyed by code, insert-then-evict windows — and the tests
// demand identical (Code, Support, VertexLabels, Edges) from
// FrequentPatterns, ClosedPatterns and Transitions after arbitrary operation
// sequences. Only sortPatterns, which the kernel did not touch, is shared
// with the production code. ClosedPatterns(k) must equal the first k of
// closedOf, the pairwise closedness filter (closedOf, subPatternOf,
// edgesContained) that production used before its sub-pattern lattice and
// top-k selection, kept here as that lattice's reference.
//
// One thing is pinned down that the seed left open. It typed an embedding's
// vertices from the embedding's own edges, the last edge visited winning, and
// the visiting order followed map iteration; record now hands the edges over
// newest first, so the oldest edge decides.

type refWindowEdge struct {
	id int64
	Edge
}

type refMiner struct {
	cfg Config

	nextID int64
	queue  []*refWindowEdge
	adj    map[int64][]*refWindowEdge
	counts map[string]int

	canon        *refCanonicalizer
	patterns     map[string]Pattern
	prevFrequent map[string]bool
}

func newRefMiner(cfg Config) *refMiner {
	return &refMiner{
		cfg:          cfg.withDefaults(),
		adj:          make(map[int64][]*refWindowEdge),
		counts:       make(map[string]int),
		canon:        newRefCanonicalizer(),
		patterns:     make(map[string]Pattern),
		prevFrequent: make(map[string]bool),
	}
}

func (m *refMiner) Add(e Edge) {
	we := &refWindowEdge{id: m.nextID, Edge: e}
	m.nextID++
	m.insert(we)
	m.applyEmbeddings(we, +1)
	m.enforceWindow()
}

func (m *refMiner) AddBatch(es []Edge) {
	batch := make([]*refWindowEdge, len(es))
	for i, e := range es {
		we := &refWindowEdge{id: m.nextID, Edge: e}
		m.nextID++
		m.insert(we)
		batch[i] = we
	}
	for _, we := range batch {
		m.applyEmbeddings(we, +1)
	}
	m.enforceWindow()
}

func (m *refMiner) EvictBefore(cutoff int64) int {
	kept := m.queue[:0]
	var victims []*refWindowEdge
	for _, we := range m.queue {
		if we.Time < cutoff {
			victims = append(victims, we)
		} else {
			kept = append(kept, we)
		}
	}
	m.queue = kept
	for _, we := range victims {
		m.applyEmbeddings(we, -1)
		m.remove(we)
	}
	return len(victims)
}

func (m *refMiner) enforceWindow() {
	if m.cfg.WindowSize <= 0 {
		return
	}
	for len(m.queue) > m.cfg.WindowSize {
		we := m.queue[0]
		m.queue = m.queue[1:]
		m.applyEmbeddings(we, -1)
		m.remove(we)
	}
}

func (m *refMiner) insert(we *refWindowEdge) {
	m.queue = append(m.queue, we)
	m.adj[we.Src] = append(m.adj[we.Src], we)
	if we.Dst != we.Src {
		m.adj[we.Dst] = append(m.adj[we.Dst], we)
	}
}

func (m *refMiner) remove(we *refWindowEdge) {
	drop := func(v int64) {
		list := m.adj[v]
		for i, e := range list {
			if e.id == we.id {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(m.adj, v)
		} else {
			m.adj[v] = list
		}
	}
	drop(we.Src)
	if we.Dst != we.Src {
		drop(we.Dst)
	}
}

type refDelta struct {
	counts   map[string]int
	patterns map[string]Pattern
}

func (m *refMiner) applyEmbeddings(we *refWindowEdge, sign int) {
	d := &refDelta{
		counts:   make(map[string]int),
		patterns: make(map[string]Pattern),
	}
	extendOK := func(f *refWindowEdge) bool { return f.id < we.id } // add rule
	if sign < 0 {
		extendOK = func(f *refWindowEdge) bool { return true } // evict rule
	}
	m.enumerate(we, extendOK, func(set []*refWindowEdge) { d.record(m.canon, set) })
	m.applyDelta(d, sign)
}

func (m *refMiner) enumerate(we *refWindowEdge, extendOK func(*refWindowEdge) bool, fn func([]*refWindowEdge)) {
	maxE := m.cfg.MaxEdges
	seen := map[string]bool{}
	set := []*refWindowEdge{we}
	verts := map[int64]bool{we.Src: true, we.Dst: true}

	var rec func()
	rec = func() {
		key := refEdgeSetKey(set)
		if seen[key] {
			return
		}
		seen[key] = true
		fn(set)
		if len(set) >= maxE {
			return
		}
		for v := range verts {
			for _, f := range m.adj[v] {
				if f.id == we.id || !extendOK(f) || refInSet(set, f.id) {
					continue
				}
				set = append(set, f)
				addedSrc := !verts[f.Src]
				addedDst := !verts[f.Dst]
				verts[f.Src] = true
				verts[f.Dst] = true
				rec()
				set = set[:len(set)-1]
				if addedSrc {
					delete(verts, f.Src)
				}
				if addedDst {
					delete(verts, f.Dst)
				}
			}
		}
	}
	rec()
}

func (d *refDelta) record(canon *refCanonicalizer, set []*refWindowEdge) {
	set = append([]*refWindowEdge(nil), set...)
	sort.Slice(set, func(i, j int) bool { return set[i].id > set[j].id })
	emb := make([]refEmbEdge, len(set))
	for i, we := range set {
		emb[i] = refEmbEdge{src: we.Src, dst: we.Dst, srcLabel: we.SrcLabel, dstLabel: we.DstLabel, label: we.Label}
	}
	code, pattern := canon.canonicalize(emb)
	if _, ok := d.patterns[code]; !ok {
		d.patterns[code] = pattern
	}
	d.counts[code]++
}

func (m *refMiner) applyDelta(d *refDelta, sign int) {
	for code, p := range d.patterns {
		if _, ok := m.patterns[code]; !ok {
			m.patterns[code] = p
		}
	}
	for code, c := range d.counts {
		m.counts[code] += sign * c
		if m.counts[code] <= 0 {
			delete(m.counts, code)
		}
	}
}

func (m *refMiner) support(code string) int {
	return m.counts[code]
}

func (m *refMiner) FrequentPatterns() []Pattern {
	var out []Pattern
	for code := range m.counts {
		if s := m.support(code); s >= m.cfg.MinSupport {
			p := m.patterns[code]
			p.Support = s
			out = append(out, p)
		}
	}
	sortPatterns(out)
	return out
}

// ClosedPatterns is the reference's closed set, cut to its first k when
// k > 0.
func (m *refMiner) ClosedPatterns(k int) []Pattern {
	out := closedOf(m.FrequentPatterns())
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// closedOf filters a frequent set down to closed patterns: those with no
// pattern one edge larger, of equal support, that contains them.
func closedOf(freq []Pattern) []Pattern {
	bySize := map[int][]Pattern{}
	for _, p := range freq {
		bySize[len(p.Edges)] = append(bySize[len(p.Edges)], p)
	}
	var out []Pattern
	for _, p := range freq {
		closed := true
		for _, q := range bySize[len(p.Edges)+1] {
			if q.Support == p.Support && subPatternOf(p, q) {
				closed = false
				break
			}
		}
		if closed {
			out = append(out, p)
		}
	}
	sortPatterns(out)
	return out
}

// subPatternOf reports whether p is a subgraph of q (injective vertex
// mapping preserving vertex labels, edge labels and direction).
func subPatternOf(p, q Pattern) bool {
	if len(p.Edges) > len(q.Edges) || len(p.VertexLabels) > len(q.VertexLabels) {
		return false
	}
	n, m := len(p.VertexLabels), len(q.VertexLabels)
	assign := make([]int, n)
	used := make([]bool, m)
	for i := range assign {
		assign[i] = -1
	}
	var match func(i int) bool
	match = func(i int) bool {
		if i == n {
			return edgesContained(p.Edges, q.Edges, assign)
		}
		for j := 0; j < m; j++ {
			if used[j] || p.VertexLabels[i] != q.VertexLabels[j] {
				continue
			}
			assign[i] = j
			used[j] = true
			if match(i + 1) {
				return true
			}
			assign[i] = -1
			used[j] = false
		}
		return false
	}
	return match(0)
}

// edgesContained checks multiset containment of p-edges mapped through
// assign into q-edges.
func edgesContained(pe, qe []PatternEdge, assign []int) bool {
	remaining := make(map[PatternEdge]int, len(qe))
	for _, e := range qe {
		remaining[e]++
	}
	for _, e := range pe {
		mapped := PatternEdge{Src: assign[e.Src], Dst: assign[e.Dst], Label: e.Label}
		if remaining[mapped] == 0 {
			return false
		}
		remaining[mapped]--
	}
	return true
}

func (m *refMiner) Transitions() (entered, left []Pattern) {
	cur := map[string]bool{}
	for _, p := range m.FrequentPatterns() {
		cur[p.Code] = true
		if !m.prevFrequent[p.Code] {
			entered = append(entered, p)
		}
	}
	for code := range m.prevFrequent {
		if !cur[code] {
			p := m.patterns[code]
			p.Support = m.support(code)
			left = append(left, p)
		}
	}
	m.prevFrequent = cur
	sortPatterns(entered)
	sortPatterns(left)
	return entered, left
}

func refEdgeSetKey(set []*refWindowEdge) string {
	ids := make([]int64, len(set))
	for i, e := range set {
		ids[i] = e.id
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	key := make([]byte, 0, len(ids)*8)
	for _, id := range ids {
		for b := 0; b < 8; b++ {
			key = append(key, byte(id>>(8*b)))
		}
	}
	return string(key)
}

func refInSet(set []*refWindowEdge, id int64) bool {
	for _, e := range set {
		if e.id == id {
			return true
		}
	}
	return false
}

// refCanonicalizer is the seed's per-embedding canonicalizer: string
// signatures, memoized on the raw (sorted-vertex-order) one.
type refCanonicalizer struct {
	memo map[string]refCanonEntry
}

type refCanonEntry struct {
	code    string
	pattern Pattern
}

func newRefCanonicalizer() *refCanonicalizer {
	return &refCanonicalizer{memo: make(map[string]refCanonEntry)}
}

type refEmbEdge struct {
	src, dst           int64
	srcLabel, dstLabel string
	label              string
}

func (c *refCanonicalizer) canonicalize(emb []refEmbEdge) (string, Pattern) {
	var vids []int64
	seen := map[int64]bool{}
	labels := map[int64]string{}
	for _, e := range emb {
		if !seen[e.src] {
			seen[e.src] = true
			vids = append(vids, e.src)
		}
		if !seen[e.dst] {
			seen[e.dst] = true
			vids = append(vids, e.dst)
		}
		labels[e.src] = e.srcLabel
		labels[e.dst] = e.dstLabel
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	rawPos := make(map[int64]int, len(vids))
	for i, v := range vids {
		rawPos[v] = i
	}

	rawSig := refBuildSig(emb, rawPos, vids, labels, identityPerm(len(vids)))
	if ent, ok := c.memo[rawSig]; ok {
		return ent.code, ent.pattern
	}

	best := ""
	permute(len(vids), func(p []int) {
		if sig := refBuildSig(emb, rawPos, vids, labels, p); best == "" || sig < best {
			best = sig
		}
	})

	pattern := patternFromSig(best)
	pattern.Code = best
	c.memo[rawSig] = refCanonEntry{code: best, pattern: pattern}
	return best, pattern
}

func refBuildSig(emb []refEmbEdge, rawPos map[int64]int, vids []int64, labels map[int64]string, perm []int) string {
	vlabels := make([]string, len(vids))
	for i, v := range vids {
		vlabels[perm[i]] = labels[v]
	}
	edges := make([]string, len(emb))
	for i, e := range emb {
		edges[i] = fmt.Sprintf("%d>%d:%s", perm[rawPos[e.src]], perm[rawPos[e.dst]], e.label)
	}
	sort.Strings(edges)
	return strings.Join(vlabels, ",") + "|" + strings.Join(edges, ";")
}

// minerOp is one step of a differential run.
type minerOp struct {
	kind   byte // 'a' Add, 'b' AddBatch, 'e' EvictBefore, 't' Transitions
	edges  []Edge
	cutoff int64
}

// shapedStream draws edges that exercise every enumeration corner: a small
// vertex alphabet (shared hubs, triangles, parallel and anti-parallel
// edges), self-loops, and one type per vertex bar the odd edge that
// disagrees with the rest about an endpoint. Time is the arrival index.
func shapedStream(rng *rand.Rand, n, nVerts int, t0 int64) []Edge {
	labels := []string{"acquired", "partnersWith", "invests"}
	vlabels := []string{"C", "P", "Q"}
	out := make([]Edge, n)
	for i := range out {
		s := int64(rng.Intn(nVerts))
		d := int64(rng.Intn(nVerts))
		switch rng.Intn(8) {
		case 0:
			d = s // self-loop
		case 1:
			s = 0 // hub
		}
		out[i] = Edge{
			Src: s, Dst: d,
			SrcLabel: vlabels[s%3], DstLabel: vlabels[d%3],
			Label: labels[rng.Intn(len(labels))],
			Time:  t0 + int64(i),
		}
		switch rng.Intn(12) {
		case 0:
			out[i].SrcLabel = vlabels[rng.Intn(3)]
		case 1:
			out[i].DstLabel = vlabels[rng.Intn(3)]
		}
	}
	return out
}

// randomOps builds an operation sequence from a seed: single adds, batches
// both smaller and larger than the count window, time evictions that cut
// into the middle of the window, and Transitions probes. At most budget
// edges are added in all: the reference's DFS visits every ordering of an
// embedding, so a dense unbounded window costs it seconds.
func randomOps(seed int64, nOps, window, budget int) []minerOp {
	rng := rand.New(rand.NewSource(seed))
	nVerts := 4 + rng.Intn(8)
	var ops []minerOp
	var clock int64
	for i := 0; i < nOps; i++ {
		r := rng.Intn(10)
		if budget <= 0 && r < 8 {
			r = 8 + r%2
		}
		switch {
		case r < 5:
			ops = append(ops, minerOp{kind: 'a', edges: shapedStream(rng, 1, nVerts, clock)})
			clock++
			budget--
		case r < 8:
			n := 1 + rng.Intn(2*window+2)
			if window == 0 {
				n = 1 + rng.Intn(8)
			}
			ops = append(ops, minerOp{kind: 'b', edges: shapedStream(rng, n, nVerts, clock)})
			clock += int64(n)
			budget -= n
		case r < 9:
			back := int64(rng.Intn(12))
			ops = append(ops, minerOp{kind: 'e', cutoff: clock - back})
		default:
			ops = append(ops, minerOp{kind: 't'})
		}
	}
	return ops
}

// miner is what a differential run drives on both sides.
type miner interface {
	Add(Edge)
	AddBatch([]Edge)
	EvictBefore(int64) int
	FrequentPatterns() []Pattern
	ClosedPatterns(k int) []Pattern
	Transitions() (entered, left []Pattern)
}

// diffAgainstReference replays ops on the kernel-backed Miner and on the
// reference and returns a description of the first divergence, or "".
func diffAgainstReference(cfg Config, ops []minerOp) string {
	var got, want miner = NewMiner(cfg), newRefMiner(cfg)
	for i, op := range ops {
		switch op.kind {
		case 'a':
			got.Add(op.edges[0])
			want.Add(op.edges[0])
		case 'b':
			got.AddBatch(op.edges)
			want.AddBatch(op.edges)
		case 'e':
			if g, w := got.EvictBefore(op.cutoff), want.EvictBefore(op.cutoff); g != w {
				return fmt.Sprintf("op %d: EvictBefore(%d) evicted %d, reference %d", i, op.cutoff, g, w)
			}
		case 't':
			ge, gl := got.Transitions()
			we, wl := want.Transitions()
			if !reflect.DeepEqual(ge, we) || !reflect.DeepEqual(gl, wl) {
				return fmt.Sprintf("op %d: Transitions\n got  %v / %v\n want %v / %v", i, ge, gl, we, wl)
			}
		}
		if g, w := got.FrequentPatterns(), want.FrequentPatterns(); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("op %d (%c): FrequentPatterns\n got  %v\n want %v", i, op.kind, g, w)
		}
		for _, k := range []int{1, 3, 0} {
			if g, w := got.ClosedPatterns(k), want.ClosedPatterns(k); !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("op %d (%c): ClosedPatterns(%d)\n got  %v\n want %v", i, op.kind, k, g, w)
			}
		}
	}
	return ""
}

// TestLatticeMatchesSubPatternOfQuick pins the lattice to the brute-force
// relation. After random operations with reads in between (so links are
// filled in several steps, and some reach a sub-pattern interned after its
// super-pattern), pattern q is linked under pattern p exactly when q has one
// edge more and subPatternOf(p, q) holds. The streams carry self-loops,
// parallel edges and edges that disagree about an entity's type.
func TestLatticeMatchesSubPatternOfQuick(t *testing.T) {
	f := func(seed int64, bits uint16) bool {
		cfg := configFromBits(bits)
		m := NewMiner(cfg)
		for _, op := range opsFor(cfg, seed, 24) {
			switch op.kind {
			case 'a':
				m.Add(op.edges[0])
			case 'b':
				m.AddBatch(op.edges)
			case 'e':
				m.EvictBefore(op.cutoff)
			case 't':
				m.ClosedPatterns(1)
			}
		}
		m.ClosedPatterns(1)
		pats := m.memo.patterns
		for pi, p := range pats {
			want := map[int32]bool{}
			for qi, q := range pats {
				if len(q.Edges) == len(p.Edges)+1 && subPatternOf(p, q) {
					want[int32(qi)] = true
				}
			}
			got := map[int32]bool{}
			for _, q := range m.lat.supers[pi] {
				if got[q] {
					t.Logf("cfg %+v seed %d: %s linked twice under %s", cfg, seed, pats[q].Code, p.Code)
					return false
				}
				got[q] = true
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("cfg %+v seed %d: links under %s\n got  %v\n want %v", cfg, seed, p.Code, got, want)
				return false
			}
		}
		for code := range m.lat.pending {
			if _, ok := m.memo.pidOf[code]; ok {
				t.Logf("cfg %+v seed %d: interned %s still pending", cfg, seed, code)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// configFromBits spreads a fuzz/quick input over the configuration space:
// MaxEdges 1–4, MinSupport 1–3, Workers 1 or 4, and count windows from none
// up to 11 edges (smaller than most batches). Bit 2 is unused.
func configFromBits(bits uint16) Config {
	cfg := Config{
		MaxEdges:   1 + int(bits&3),
		MinSupport: 1 + int(bits>>3&3)%3,
		Workers:    1,
		WindowSize: int(bits>>6) % 12,
	}
	if bits&32 != 0 {
		cfg.Workers = 4
	}
	return cfg
}

// bitsFor is configFromBits' inverse, for readable seed corpora.
func bitsFor(cfg Config) uint16 {
	bits := uint16(cfg.MaxEdges-1) | uint16(cfg.MinSupport-1)<<3 | uint16(cfg.WindowSize)<<6
	if cfg.Workers == 4 {
		bits |= 32
	}
	return bits
}

// opsFor sizes a differential run to what the reference can replay quickly.
func opsFor(cfg Config, seed int64, nOps int) []minerOp {
	budget := 48
	if cfg.MaxEdges == 4 {
		budget = 24
	}
	return randomOps(seed, nOps, cfg.WindowSize, budget)
}

func TestMinerMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64, bits uint16) bool {
		cfg := configFromBits(bits)
		if d := diffAgainstReference(cfg, opsFor(cfg, seed, 24)); d != "" {
			t.Logf("cfg %+v seed %d: %s", cfg, seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMinerMatchesReference lets the fuzzer pick the configuration and the
// operation sequence; every prefix must agree with the reference.
func FuzzMinerMatchesReference(f *testing.F) {
	for i, cfg := range []Config{
		{MaxEdges: 3, MinSupport: 1, Workers: 1},
		{MaxEdges: 3, MinSupport: 1, Workers: 1, WindowSize: 5},
		{MaxEdges: 4, MinSupport: 1, Workers: 4, WindowSize: 2},
		{MaxEdges: 2, MinSupport: 2, Workers: 4, WindowSize: 11},
		{MaxEdges: 1, MinSupport: 1, Workers: 1, WindowSize: 1},
		{MaxEdges: 3, MinSupport: 3, Workers: 4, WindowSize: 6},
		{MaxEdges: 4, MinSupport: 2, Workers: 1},
	} {
		f.Add(int64(i+1), bitsFor(cfg), uint8(30))
	}
	f.Fuzz(func(t *testing.T, seed int64, bits uint16, nOps uint8) {
		cfg := configFromBits(bits)
		if d := diffAgainstReference(cfg, opsFor(cfg, seed, int(nOps)%40)); d != "" {
			t.Fatalf("cfg %+v seed %d: %s", cfg, seed, d)
		}
	})
}
