package fgm

import (
	"encoding/binary"
	"math"
	"sync"
)

// The embedding kernel. Counting the embeddings that contain one window edge
// is the miner's whole per-edge cost, so this path works on interned labels
// and slab slots only, keeps its scratch between calls, and reaches the
// string canonicalizer once per distinct shape.
//
// Enumeration is ESU (Wernicke's exclusive-neighbourhood rule) on the line
// graph of the window, rooted at the anchor edge: an embedding is extended
// either with a candidate that was already adjacent to it when an earlier
// candidate was tried — then only with the candidates listed after that one —
// or with an edge that became adjacent through the vertex the last extension
// brought in. Every connected edge set containing the anchor is thereby
// generated exactly once, for any MaxEdges, with no set of visited sets.

// shape is the memoized canonical form of one raw signature.
type shape struct {
	pid  int32   // dense pattern id
	perm []uint8 // raw vertex position -> canonical position
}

// shapeRef is what the memo stores per raw signature: the pattern id the
// count needs on every embedding, and the shape's index for the MNI path.
type shapeRef struct {
	pid, shape int32
}

// shapeMemo maps raw signatures to canonical patterns. A raw signature is an
// embedding seen through its concrete ids: the vertex count, the vertex
// labels in ascending-id order, then the (srcPos, dstPos, label) triples
// sorted, labels as uvarints. Isomorphic embeddings can differ in raw
// signature; canonicalForm folds each distinct one (tens of thousands on a
// news stream) onto its public code, which is why codes are byte-identical to the
// string-signature miner's.
type shapeMemo struct {
	// mu orders AddBatch workers among themselves: they hold the read lock
	// while enumerating and trade it for the write lock on a miss. Every
	// other access happens under Miner.mu alone.
	mu       sync.RWMutex
	refs     map[string]shapeRef // by raw signature
	shapes   []shape
	pidOf    map[string]int32 // canonical code -> pattern id
	patterns []Pattern        // by pattern id; Support unset
}

func newShapeMemo() shapeMemo {
	return shapeMemo{refs: make(map[string]shapeRef), pidOf: make(map[string]int32)}
}

// placedVertex is one embedding vertex in raw (ascending concrete id) order.
type placedVertex struct {
	id    int64
	found int32 // index in kernel.vs
}

// embEdge is one embedding edge between indexes into kernel.vs.
type embEdge struct {
	src, dst int32
	label    uint32
}

// vertexType is the type an embedding vertex takes: the one its oldest edge
// in the embedding asserts (that edge's destination type, should it be a
// self-loop). Edges of one entity normally agree; when they do not, this
// keeps an embedding's pattern a function of its own edges, and so the
// counts a function of the window's contents.
type vertexType struct {
	seq   int64 // of the deciding edge
	label uint32
}

// kernel enumerates and counts the embeddings around one anchor edge at a
// time. Its slices are scratch reused across runs; a kernel belongs to one
// goroutine.
type kernel struct {
	m      *Miner
	counts *[]int64             // by pattern id; the miner's own, or a worker's delta
	images *[][]map[int64]int64 // likewise, touched only when TrackMNI
	emb    *int64               // embeddings counted, likewise
	shared bool                 // an AddBatch worker: the memo is guarded by memo.mu

	anchor int32
	limit  int64 // extend only with edges of seq below this
	sign   int64

	set []embEdge      // the current embedding
	vs  []int32        // its distinct vertex slots, in order of discovery
	typ []vertexType   // their types, by index in vs
	ord []placedVertex // the same vertices in raw order
	ext []int32        // candidate stack: each level's list is a contiguous run

	// Per-embedding scratch of count.
	pos []uint64 // by index in vs: raw position
	tri []uint64 // srcPos<<40 | dstPos<<32 | label per edge, ascending
	sig []byte   // the raw signature
}

func newKernel(m *Miner, counts *[]int64, images *[][]map[int64]int64, emb *int64, shared bool) kernel {
	maxE := m.cfg.MaxEdges
	return kernel{
		m: m, counts: counts, images: images, emb: emb, shared: shared,
		set: make([]embEdge, 0, maxE),
		vs:  make([]int32, 0, maxE+1),
		typ: make([]vertexType, maxE+1),
		ord: make([]placedVertex, 0, maxE+1),
		pos: make([]uint64, maxE+1),
		tri: make([]uint64, 0, maxE),
	}
}

// run applies sign to the count of every embedding that contains the anchor
// edge and otherwise only edges that arrived before limit. An arrival passes
// its own seq (the embeddings born with it); an eviction passes no limit
// (the embeddings that die with it).
func (k *kernel) run(anchor int32, limit, sign int64) {
	if k.shared {
		k.m.memo.mu.RLock()
		defer k.m.memo.mu.RUnlock()
	}
	k.anchor, k.limit, k.sign = anchor, limit, sign
	e := &k.m.edges[anchor]
	k.set = append(k.set[:0], embEdge{label: e.el})
	k.vs, k.ord = append(k.vs[:0], e.sv), k.ord[:0]
	k.place(e.sv)
	if e.dv != e.sv {
		k.set[0].dst = 1
		k.vs = append(k.vs, e.dv)
		k.place(e.dv)
		k.typ[0] = vertexType{e.seq, e.sl}
	}
	k.typ[k.set[0].dst] = vertexType{e.seq, e.dl}
	k.count()
	if k.m.cfg.MaxEdges == 1 {
		return
	}
	k.ext = k.ext[:0]
	for nv, v := range k.vs {
		k.pushExclusive(v, nv)
	}
	k.extend(0, len(k.ext))
}

// pushExclusive stacks the admissible edges at vertex v — new to the
// embedding — that touch none of its first nv vertices: the edges adjacent
// to the embedding through v alone.
func (k *kernel) pushExclusive(v int32, nv int) {
	edges := k.m.edges
	for _, f := range k.m.verts[v].adj {
		fe := &edges[f]
		if fe.seq >= k.limit || f == k.anchor {
			continue
		}
		other := fe.sv
		if other == v {
			other = fe.dv
		}
		if slotIndex(k.vs[:nv], other) < 0 {
			k.ext = append(k.ext, f)
		}
	}
}

// extend grows the current embedding by each candidate in ext[lo:hi] in
// turn; hi is the top of the stack.
func (k *kernel) extend(lo, hi int) {
	grow := len(k.set)+1 < k.m.cfg.MaxEdges
	for i := lo; i < hi; i++ {
		fe := &k.m.edges[k.ext[i]]
		nv := len(k.vs)
		// The edge touches the embedding, so at most one endpoint is new.
		fresh := int32(-1)
		src, dst := slotIndex(k.vs, fe.sv), slotIndex(k.vs, fe.dv)
		if src < 0 {
			fresh, src = fe.sv, int32(nv)
		} else if dst < 0 {
			fresh, dst = fe.dv, int32(nv)
		}
		k.set = append(k.set, embEdge{src: src, dst: dst, label: fe.el})
		at := 0
		if fresh >= 0 {
			k.vs = append(k.vs, fresh)
			at = k.place(fresh)
			k.typ[nv].seq = math.MaxInt64
		}
		wasSrc, wasDst := k.typ[src], k.typ[dst]
		if fe.seq < wasSrc.seq {
			k.typ[src] = vertexType{fe.seq, fe.sl}
		}
		if fe.seq <= k.typ[dst].seq {
			k.typ[dst] = vertexType{fe.seq, fe.dl}
		}
		k.count()
		if grow {
			if fresh >= 0 {
				k.pushExclusive(fresh, nv)
			}
			if i+1 < len(k.ext) {
				k.extend(i+1, len(k.ext))
			}
			k.ext = k.ext[:hi]
		}
		if fresh >= 0 {
			k.ord = append(k.ord[:at], k.ord[at+1:]...)
		}
		k.typ[dst], k.typ[src] = wasDst, wasSrc
		k.set = k.set[:len(k.set)-1]
		k.vs = k.vs[:nv]
	}
}

func slotIndex(vs []int32, v int32) int32 {
	for i, u := range vs {
		if u == v {
			return int32(i)
		}
	}
	return -1
}

// place inserts the vertex just appended to vs into the raw order and
// returns its position.
func (k *kernel) place(v int32) int {
	id := k.m.verts[v].id
	at := len(k.ord)
	k.ord = append(k.ord, placedVertex{})
	for ; at > 0 && k.ord[at-1].id > id; at-- {
		k.ord[at] = k.ord[at-1]
	}
	k.ord[at] = placedVertex{id: id, found: int32(len(k.vs) - 1)}
	return at
}

// count resolves the current embedding's raw signature through the memo and
// applies the sign to its pattern.
func (k *kernel) count() {
	sig := append(k.sig[:0], byte(len(k.ord)))
	for i := range k.ord {
		found := k.ord[i].found
		k.pos[found] = uint64(i)
		sig = binary.AppendUvarint(sig, uint64(k.typ[found].label))
	}
	tri := k.tri[:0]
	for i := range k.set {
		e := &k.set[i]
		t := k.pos[e.src]<<40 | k.pos[e.dst]<<32 | uint64(e.label)
		at := len(tri)
		tri = append(tri, t)
		for ; at > 0 && tri[at-1] > t; at-- {
			tri[at] = tri[at-1]
		}
		tri[at] = t
	}
	for _, t := range tri {
		sig = append(sig, byte(t>>40), byte(t>>32))
		sig = binary.AppendUvarint(sig, uint64(uint32(t)))
	}
	k.tri, k.sig = tri, sig

	m := k.m
	ref, ok := m.memo.refs[string(sig)]
	if !ok {
		ref = k.missed()
	}

	*k.emb++
	counts := *k.counts
	if int(ref.pid) >= len(counts) { // a worker's delta lags the pattern table
		counts = append(counts, make([]int64, int(ref.pid)+1-len(counts))...)
		*k.counts = counts
	}
	counts[ref.pid] += k.sign
	if m.cfg.TrackMNI {
		k.countImages(&m.memo.shapes[ref.shape], counts[ref.pid] == 0)
	}
}

// missed registers the current embedding's raw signature, which the memo
// does not hold. A worker swaps its read lock for the write lock and looks
// again first: another worker may have met the same shape meanwhile.
func (k *kernel) missed() shapeRef {
	memo := &k.m.memo
	if k.shared {
		memo.mu.RUnlock()
		memo.mu.Lock()
		defer func() {
			memo.mu.Unlock()
			memo.mu.RLock()
		}()
		if ref, ok := memo.refs[string(k.sig)]; ok {
			return ref
		}
	}
	vlabels := make([]string, len(k.ord))
	for i := range k.ord {
		vlabels[i] = k.m.labels[k.typ[k.ord[i].found].label]
	}
	ref := k.m.addShape(vlabels, k.tri)
	memo.refs[string(k.sig)] = ref
	return ref
}

// addShape canonicalizes a raw shape new to the memo — its vertex types in
// raw order and its sorted edge triples — and returns its reference, growing
// the miner's count tables when the pattern itself is new.
func (m *Miner) addShape(vlabels []string, tri []uint64) shapeRef {
	edges := make([]rawEdge, len(tri))
	for i, t := range tri {
		edges[i] = rawEdge{src: int(t >> 40), dst: int(t >> 32 & 0xff), label: m.labels[uint32(t)]}
	}
	code, perm := canonicalForm(vlabels, edges)

	memo := &m.memo
	pid, ok := memo.pidOf[code]
	if !ok {
		pid = int32(len(memo.patterns))
		memo.pidOf[code] = pid
		pattern := patternFromSig(code)
		pattern.Code = code
		memo.patterns = append(memo.patterns, pattern)
		m.counts = append(m.counts, 0)
		if m.cfg.TrackMNI {
			m.images = append(m.images, nil)
		}
	}
	sh := shape{pid: pid, perm: make([]uint8, len(perm))}
	for i, p := range perm {
		sh.perm[i] = uint8(p)
	}
	memo.shapes = append(memo.shapes, sh)
	return shapeRef{pid: pid, shape: int32(len(memo.shapes) - 1)}
}

// countImages applies the sign to the MNI image of every vertex of the
// current embedding; a pattern whose last embedding just went drops its
// image maps.
func (k *kernel) countImages(sh *shape, gone bool) {
	images := *k.images
	if int(sh.pid) >= len(images) {
		images = append(images, make([][]map[int64]int64, int(sh.pid)+1-len(images))...)
		*k.images = images
	}
	if gone {
		images[sh.pid] = nil
		return
	}
	imgs := images[sh.pid]
	if imgs == nil {
		imgs = make([]map[int64]int64, len(sh.perm))
		for i := range imgs {
			imgs[i] = make(map[int64]int64)
		}
		images[sh.pid] = imgs
	}
	for raw := range k.ord {
		byVid, id := imgs[sh.perm[raw]], k.ord[raw].id
		if c := byVid[id] + k.sign; c > 0 {
			byVid[id] = c
		} else {
			delete(byVid, id)
		}
	}
}
