package fgm

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// Config tunes the streaming miner.
type Config struct {
	// MaxEdges bounds pattern size (edges per pattern). Default 3.
	MaxEdges int
	// MinSupport is the frequency threshold, an embedding count. Default 3.
	MinSupport int
	// WindowSize bounds the window to the newest WindowSize seqs (see
	// Edge.ID): an edge leaves once the frontier is WindowSize past its seq.
	// Edges that carry no ID get consecutive seqs, so the window is the last
	// WindowSize arrivals; edges numbered by a log position keep the window
	// a function of that log. 0 keeps every edge until Remove.
	WindowSize int
	// Workers parallelizes AddBatch across hash partitions. Default
	// GOMAXPROCS.
	Workers int
}

// DefaultConfig returns the configuration used in the paper-style
// experiments.
func DefaultConfig() Config {
	return Config{MaxEdges: 3, MinSupport: 3, WindowSize: 2000}
}

func (c Config) withDefaults() Config {
	if c.MaxEdges <= 0 {
		c.MaxEdges = 3
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 3
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// winEdge is a stream edge resident in the window, with its labels interned
// and its endpoints resolved to vertex slots so the kernel never touches a
// string or a map. The type labels stay with the edge that asserts them: an
// entity has no type of its own in the window (see kernel.count).
type winEdge struct {
	seq        int64  // stream position; an embedding is born with its highest seq
	src, dst   int64  // concrete entity ids
	sv, dv     int32  // slots in Miner.verts
	sl, dl, el uint32 // interned SrcLabel, DstLabel, Label
}

// winVertex is an entity with at least one edge in the window.
type winVertex struct {
	id  int64
	adj []int32 // incident edge slots (a self-loop appears once)
}

// Miner is the streaming closed-frequent-pattern miner. All exported
// methods are safe for concurrent use (pattern queries run while the
// ingestion path feeds the window); AddBatch additionally parallelizes its
// own enumeration internally.
//
// Pattern counts are a pure function of the window's contents, so every
// mutation evicts first and counts the newcomers against the smaller window.
type Miner struct {
	mu  sync.RWMutex
	cfg Config

	nextSeq   int64     // the frontier: one past the newest seq
	edges     []winEdge // slab; queue and adjacency lists hold slots into it
	freeEdges []int32
	queue     []int32 // ascending seq; the window is queue[head:]
	head      int
	verts     []winVertex // slab
	freeVerts []int32
	vertOf    map[int64]int32 // concrete id -> slot in verts
	labelOf   map[string]uint32
	labels    []string

	memo   shapeMemo
	counts []int64         // embedding count by pattern id
	seqK   kernel          // scratch of the sequential paths (Add, evictions)
	emb    int64           // embeddings counted so far
	prev   map[string]bool // frequent codes at the last Transitions call
	lat    lattice         // sub-pattern links for ClosedPatterns
}

// NewMiner returns an empty miner.
func NewMiner(cfg Config) *Miner {
	m := &Miner{
		cfg:     cfg.withDefaults(),
		vertOf:  make(map[int64]int32),
		labelOf: make(map[string]uint32),
		memo:    newShapeMemo(),
		prev:    make(map[string]bool),
		lat:     lattice{pending: make(map[string][]int32)},
	}
	m.seqK = newKernel(m, &m.counts, &m.emb, false)
	return m
}

// claim returns the seq of an edge with the given ID and moves the frontier
// past it.
func (m *Miner) claim(id int64) int64 {
	seq := max(m.nextSeq, id)
	m.nextSeq = seq + 1
	return seq
}

// Add inserts one stream edge: it first evicts the edges the count window
// slides past, then counts the embeddings born with the newcomer.
func (m *Miner) Add(e Edge) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.claim(e.ID)
	m.slide()
	slot := m.insert(e, seq)
	m.seqK.run(slot, seq, +1)
}

// AddBatch inserts a batch of edges and updates counts in parallel across
// workers. Each new embedding is attributed to exactly one new edge — the
// one with the maximum seq it contains — so counts are exact. Edges the
// count window slides past are evicted before anything is counted, and of
// the batch only the edges still inside the window are mined.
func (m *Miner) AddBatch(es []Edge) {
	if len(es) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	seqs := make([]int64, len(es))
	for i := range es {
		seqs[i] = m.claim(es[i].ID)
	}
	m.slide()
	batch := make([]int32, 0, len(es))
	for i := range es {
		if m.inWindow(seqs[i]) {
			batch = append(batch, m.insert(es[i], seqs[i]))
		}
	}

	workers := m.cfg.Workers
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 {
		for _, slot := range batch {
			m.seqK.run(slot, m.edges[slot].seq, +1)
		}
		return
	}
	// Workers read the window (frozen until they finish), share the shape
	// memo and count into private deltas that merge once all are done.
	deltas := make([]struct {
		counts []int64
		emb    int64
	}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := &deltas[w]
			k := newKernel(m, &d.counts, &d.emb, true)
			for i := w; i < len(batch); i += workers {
				k.run(batch[i], m.edges[batch[i]].seq, +1)
			}
		}(w)
	}
	wg.Wait()
	for i := range deltas {
		d := &deltas[i]
		m.emb += d.emb
		for pid, c := range d.counts {
			m.counts[pid] += c
		}
	}
}

// Advance moves the frontier to next when it is behind it, as though edges
// up to seq next-1 had arrived, and evicts what the count window slides
// past. The pipeline calls it once seeded, with the graph's edge allocator,
// so a reopened miner's window ends where the live one's did.
func (m *Miner) Advance(next int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if next > m.nextSeq {
		m.nextSeq = next
		m.slide()
	}
}

// Remove takes the edge of seq id out of the window, un-counting every
// embedding that contains it, and reports whether it was resident. An
// edge's seq is its ID whenever IDs arrive in increasing order, as fact IDs
// do.
func (m *Miner) Remove(id int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.queue[m.head:]
	i := sort.Search(len(w), func(i int) bool { return m.edges[w[i]].seq >= id })
	if i == len(w) || m.edges[w[i]].seq != id {
		return false
	}
	slot := w[i]
	copy(w[i:], w[i+1:])
	m.queue = m.queue[:len(m.queue)-1]
	m.evict(slot)
	return true
}

// inWindow reports whether the count window, at the current frontier,
// holds seq.
func (m *Miner) inWindow(seq int64) bool {
	ws := m.cfg.WindowSize
	return ws <= 0 || seq >= m.nextSeq-int64(ws)
}

// slide evicts the oldest edges until every resident seq is inside the
// count window.
func (m *Miner) slide() {
	for m.head < len(m.queue) && !m.inWindow(m.edges[m.queue[m.head]].seq) {
		slot := m.queue[m.head]
		m.head++
		m.evict(slot)
	}
	// Reclaim the consumed prefix once it is the larger half, so a
	// steady-state Add neither grows nor reallocates the queue.
	if m.head > 32 && m.head*2 >= len(m.queue) {
		n := copy(m.queue, m.queue[m.head:])
		m.queue, m.head = m.queue[:n], 0
	}
}

// evict un-counts every embedding that contains the edge (it must already be
// off the queue) and removes it from the window.
func (m *Miner) evict(slot int32) {
	m.seqK.run(slot, math.MaxInt64, -1)
	m.remove(slot)
}

func (m *Miner) intern(label string) uint32 {
	id, ok := m.labelOf[label]
	if !ok {
		id = uint32(len(m.labels))
		m.labels = append(m.labels, label)
		m.labelOf[label] = id
	}
	return id
}

// vertexSlot returns the slot of an entity, admitting it when it is new to
// the window.
func (m *Miner) vertexSlot(id int64) int32 {
	if slot, ok := m.vertOf[id]; ok {
		return slot
	}
	var slot int32
	if n := len(m.freeVerts); n > 0 {
		slot, m.freeVerts = m.freeVerts[n-1], m.freeVerts[:n-1]
		m.verts[slot].id = id
	} else {
		slot = int32(len(m.verts))
		m.verts = append(m.verts, winVertex{id: id})
	}
	m.vertOf[id] = slot
	return slot
}

// insert appends the edge, of the newest seq, to the window and returns its
// slot.
func (m *Miner) insert(e Edge, seq int64) int32 {
	we := winEdge{
		seq: seq, src: e.Src, dst: e.Dst,
		sl: m.intern(e.SrcLabel), dl: m.intern(e.DstLabel), el: m.intern(e.Label),
	}
	we.sv = m.vertexSlot(e.Src)
	we.dv = m.vertexSlot(e.Dst)
	var slot int32
	if n := len(m.freeEdges); n > 0 {
		slot, m.freeEdges = m.freeEdges[n-1], m.freeEdges[:n-1]
		m.edges[slot] = we
	} else {
		slot = int32(len(m.edges))
		m.edges = append(m.edges, we)
	}
	m.queue = append(m.queue, slot)
	m.verts[we.sv].adj = append(m.verts[we.sv].adj, slot)
	if we.dv != we.sv {
		m.verts[we.dv].adj = append(m.verts[we.dv].adj, slot)
	}
	return slot
}

// remove unlinks an edge from its endpoints and recycles its slot; an
// entity left without edges leaves the window too.
func (m *Miner) remove(slot int32) {
	e := &m.edges[slot]
	m.unlink(e.sv, slot)
	if e.dv != e.sv {
		m.unlink(e.dv, slot)
	}
	m.freeEdges = append(m.freeEdges, slot)
}

func (m *Miner) unlink(v, slot int32) {
	vx := &m.verts[v]
	for i, s := range vx.adj {
		if s == slot {
			last := len(vx.adj) - 1
			vx.adj[i] = vx.adj[last]
			vx.adj = vx.adj[:last]
			break
		}
	}
	if len(vx.adj) == 0 {
		delete(m.vertOf, vx.id)
		m.freeVerts = append(m.freeVerts, v)
	}
}

// FrequentPatterns returns all patterns at or above MinSupport, largest
// support first.
func (m *Miner) FrequentPatterns() []Pattern {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.rankLocked(0, anyPattern)
}

// ClosedPatterns returns the k best closed frequent patterns, or all of
// them when k <= 0: largest support first, then more edges, then smaller
// code. Closed patterns are the miner's reporting unit per the paper. A
// frequent pattern is closed when no pattern with one more edge that
// contains it has equal support; larger super-patterns are not compared.
// An embedding count can grow with the pattern, so a super-pattern two or
// more edges larger with equal support leaves a pattern closed.
//
// One pass over the count table answers it: only a frequent pattern that
// would enter the top k is checked against its lattice links.
func (m *Miner) ClosedPatterns(k int) []Pattern {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.lat.fill(&m.memo)
	return m.rankLocked(k, m.closed)
}

func anyPattern(ranked) bool { return true }

// rankLocked returns the k best frequent patterns that keep accepts, or all
// of them when k <= 0, best first. keep sees only patterns that would enter
// the selection. The caller holds m.mu in either mode.
func (m *Miner) rankLocked(k int, keep func(ranked) bool) []Pattern {
	top := topK{m: m, k: k}
	for pid, n := range m.counts {
		if n <= 0 {
			continue
		}
		r := ranked{pid: int32(pid), support: int(n)}
		if r.support >= m.cfg.MinSupport && top.admits(r) && keep(r) {
			top.add(r)
		}
	}
	return top.patterns()
}

// closed reports whether no pattern one edge larger that contains r's
// pattern has its support (which, being frequent, is nonzero).
func (m *Miner) closed(r ranked) bool {
	for _, q := range m.lat.supers[r.pid] {
		if int(m.counts[q]) == r.support {
			return false
		}
	}
	return true
}

// Transitions reports which patterns entered and left the frequent set
// since the previous call — the signal used to "reconstruct smaller
// patterns from larger patterns that just turned infrequent".
func (m *Miner) Transitions() (entered, left []Pattern) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := map[string]bool{}
	for _, p := range m.rankLocked(0, anyPattern) {
		cur[p.Code] = true
		if !m.prev[p.Code] {
			entered = append(entered, p)
		}
	}
	for code := range m.prev {
		if !cur[code] {
			pid := m.memo.pidOf[code]
			p := m.memo.patterns[pid]
			p.Support = int(m.counts[pid])
			left = append(left, p)
		}
	}
	m.prev = cur
	sortPatterns(entered)
	sortPatterns(left)
	return entered, left
}

func sortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool { return outranks(ps[i].Support, &ps[i], ps[j].Support, &ps[j]) })
}

// outranks reports whether pattern p of support sp sorts before pattern q
// of support sq: larger support first, then more edges, then smaller code.
func outranks(sp int, p *Pattern, sq int, q *Pattern) bool {
	if sp != sq {
		return sp > sq
	}
	if len(p.Edges) != len(q.Edges) {
		return len(p.Edges) > len(q.Edges)
	}
	return p.Code < q.Code
}
