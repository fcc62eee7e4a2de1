package fgm

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// e builds a company-acquires-company style edge quickly.
func e(src, dst int64, label string) Edge {
	return Edge{Src: src, Dst: dst, SrcLabel: "C", DstLabel: "C", Label: label}
}

// randomStream draws edges over a small vertex/label alphabet so patterns
// repeat often.
func randomStream(n int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"acquired", "partnersWith", "invests"}
	vlabels := []string{"C", "P"}
	out := make([]Edge, n)
	for i := range out {
		s := int64(rng.Intn(8))
		d := int64(rng.Intn(8))
		for d == s {
			d = int64(rng.Intn(8))
		}
		out[i] = Edge{
			Src: s, Dst: d,
			SrcLabel: vlabels[s%2], DstLabel: vlabels[d%2],
			Label: labels[rng.Intn(len(labels))],
		}
	}
	return out
}

// countsOf returns the nonzero embedding counts by pattern code.
func countsOf(m *Miner) map[string]int {
	out := map[string]int{}
	for pid, c := range m.counts {
		if c != 0 {
			out[m.memo.patterns[pid].Code] = int(c)
		}
	}
	return out
}

func TestSingleEdgePattern(t *testing.T) {
	m := NewMiner(Config{MaxEdges: 2, MinSupport: 1})
	m.Add(e(1, 2, "acquired"))
	ps := m.FrequentPatterns()
	if len(ps) != 1 {
		t.Fatalf("patterns = %+v", ps)
	}
	if ps[0].Support != 1 || len(ps[0].Edges) != 1 || ps[0].Edges[0].Label != "acquired" {
		t.Fatalf("pattern = %+v", ps[0])
	}
}

func TestTwoEdgeEmbedding(t *testing.T) {
	m := NewMiner(Config{MaxEdges: 2, MinSupport: 1})
	m.Add(e(1, 2, "acquired"))
	m.Add(e(2, 3, "acquired"))
	// patterns: two single-edge embeddings of the same code, one 2-edge chain
	ps := m.FrequentPatterns()
	if len(ps) != 2 {
		t.Fatalf("want 2 distinct patterns, got %+v", ps)
	}
	var chain *Pattern
	for i := range ps {
		if len(ps[i].Edges) == 2 {
			chain = &ps[i]
		}
	}
	if chain == nil || chain.Support != 1 {
		t.Fatalf("chain pattern missing: %+v", ps)
	}
	for _, p := range ps {
		if len(p.Edges) == 1 && p.Support != 2 {
			t.Fatalf("single-edge support = %d, want 2", p.Support)
		}
	}
}

func TestDisconnectedEdgesDontCombine(t *testing.T) {
	m := NewMiner(Config{MaxEdges: 3, MinSupport: 1})
	m.Add(e(1, 2, "acquired"))
	m.Add(e(10, 20, "acquired"))
	for _, p := range m.FrequentPatterns() {
		if len(p.Edges) > 1 {
			t.Fatalf("disconnected edges formed pattern %+v", p)
		}
	}
}

// The core invariant: incremental counts equal a from-scratch recount of
// the current window, across random streams with window eviction.
func TestStreamingMatchesRecountQuick(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		n := int(nOps)%60 + 10
		stream := randomStream(n, seed)
		for i := 3; i < n; i += 7 { // some edges type their source differently
			stream[i].SrcLabel = "Q"
		}
		cfg := Config{MaxEdges: 3, MinSupport: 1, WindowSize: 15}
		m := NewMiner(cfg)
		for _, ed := range stream {
			m.Add(ed)
		}
		fresh := minerForWindow(m.window(), Config{MaxEdges: 3, MinSupport: 1})
		return reflect.DeepEqual(countsOf(m), countsOf(fresh))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A type that only an evicted edge asserted must not outlive that edge.
func TestEvictedEdgeTakesItsTypeAlong(t *testing.T) {
	cfg := Config{MaxEdges: 3, MinSupport: 1, WindowSize: 2}
	m := NewMiner(cfg)
	m.Add(Edge{Src: 1, Dst: 2, SrcLabel: "Company", DstLabel: "P", Label: "a"})
	m.Add(Edge{Src: 1, Dst: 3, SrcLabel: "Org", DstLabel: "P", Label: "b"})
	m.Add(Edge{Src: 1, Dst: 4, SrcLabel: "Org", DstLabel: "P", Label: "c"})
	for code := range countsOf(m) {
		if strings.Contains(code, "Company") {
			t.Fatalf("pattern %q is typed by an edge that left the window", code)
		}
	}
	fresh := minerForWindow(m.window(), Config{MaxEdges: 3, MinSupport: 1})
	if got, want := countsOf(m), countsOf(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming counts %v, recount of the same window %v", got, want)
	}
}

// Removing edges from anywhere in the window — the oldest 40 here, in
// shuffled order — leaves the counts a recount of the survivors gives.
func TestTimeEvictionMatchesRecount(t *testing.T) {
	stream := randomStream(80, 11)
	cfg := Config{MaxEdges: 3, MinSupport: 1}
	m := NewMiner(cfg)
	for _, ed := range stream {
		m.Add(ed)
	}
	for _, id := range rand.New(rand.NewSource(11)).Perm(40) {
		if !m.Remove(int64(id)) {
			t.Fatalf("edge %d was not resident", id)
		}
	}
	if m.Remove(3) || m.Remove(80) {
		t.Fatal("Remove found an edge that is gone or never came")
	}
	fresh := minerForWindow(m.window(), cfg)
	if !reflect.DeepEqual(countsOf(m), countsOf(fresh)) {
		t.Fatal("removal desynced counts")
	}
	if m.WindowLen() != 40 {
		t.Fatalf("window len = %d", m.WindowLen())
	}
}

func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	stream := randomStream(120, 13)
	seq := NewMiner(Config{MaxEdges: 3, MinSupport: 1})
	for _, ed := range stream {
		seq.Add(ed)
	}
	batch := NewMiner(Config{MaxEdges: 3, MinSupport: 1})
	batch.AddBatch(stream)
	if !reflect.DeepEqual(countsOf(seq), countsOf(batch)) {
		t.Fatal("AddBatch diverged from sequential Add")
	}
}

func TestCanonicalCodeInvariantUnderRelabeling(t *testing.T) {
	// codeOf mines one two-edge embedding and returns its pattern's code.
	codeOf := func(a, b Edge) string {
		m := NewMiner(Config{MaxEdges: 2, MinSupport: 1})
		m.Add(a)
		m.Add(b)
		for _, p := range m.FrequentPatterns() {
			if len(p.Edges) == 2 {
				return p.Code
			}
		}
		t.Fatalf("no two-edge pattern for %+v, %+v", a, b)
		return ""
	}
	// same structure, different concrete ids and edge orders
	code1 := codeOf(
		Edge{Src: 1, Dst: 2, SrcLabel: "C", DstLabel: "C", Label: "acquired"},
		Edge{Src: 2, Dst: 3, SrcLabel: "C", DstLabel: "P", Label: "manufactures"})
	code2 := codeOf(
		Edge{Src: 30, Dst: 10, SrcLabel: "C", DstLabel: "P", Label: "manufactures"},
		Edge{Src: 77, Dst: 30, SrcLabel: "C", DstLabel: "C", Label: "acquired"})
	if code1 != code2 {
		t.Fatalf("isomorphic embeddings got different codes:\n%s\n%s", code1, code2)
	}
	// direction matters
	code3 := codeOf(
		Edge{Src: 2, Dst: 1, SrcLabel: "C", DstLabel: "C", Label: "acquired"},
		Edge{Src: 2, Dst: 3, SrcLabel: "C", DstLabel: "P", Label: "manufactures"})
	if code3 == code1 {
		t.Fatal("direction-reversed embedding got the same code")
	}
}

func TestClosedPatternsFilter(t *testing.T) {
	// Build 3 copies of the chain A-acquired->B-manufactures->P. The
	// 1-edge sub-patterns have the same support (3) as the 2-edge chain,
	// so only the chain is closed.
	m := NewMiner(Config{MaxEdges: 2, MinSupport: 2})
	base := int64(0)
	for i := 0; i < 3; i++ {
		m.Add(Edge{Src: base, Dst: base + 1, SrcLabel: "C", DstLabel: "C", Label: "acquired"})
		m.Add(Edge{Src: base + 1, Dst: base + 2, SrcLabel: "C", DstLabel: "P", Label: "manufactures"})
		base += 10
	}
	freq := m.FrequentPatterns()
	closed := m.ClosedPatterns(0)
	if len(freq) != 3 {
		t.Fatalf("frequent = %+v", freq)
	}
	if len(closed) != 1 || len(closed[0].Edges) != 2 {
		t.Fatalf("closed = %+v", closed)
	}
	// Add an extra lone "acquired" edge: its 1-edge pattern now has support
	// 4 > chain's 3, so it becomes closed too.
	m.Add(Edge{Src: 100, Dst: 101, SrcLabel: "C", DstLabel: "C", Label: "acquired"})
	closed = m.ClosedPatterns(0)
	if len(closed) != 2 {
		t.Fatalf("closed after extra edge = %+v", closed)
	}
}

// C2: when a large pattern turns infrequent after eviction, its
// sub-patterns are still counted and re-enter the closed set.
func TestReconstructionAfterInfrequency(t *testing.T) {
	cfg := Config{MaxEdges: 2, MinSupport: 3}
	m := NewMiner(cfg)
	// three chain instances, seqs 0–5 — chain frequent
	for i := int64(0); i < 3; i++ {
		m.Add(Edge{Src: i * 10, Dst: i*10 + 1, SrcLabel: "C", DstLabel: "C", Label: "acquired"})
		m.Add(Edge{Src: i*10 + 1, Dst: i*10 + 2, SrcLabel: "C", DstLabel: "P", Label: "manufactures"})
	}
	// plus 2 extra lone acquired edges (so the 1-edge pattern stays
	// frequent after the first chain is removed)
	m.Add(Edge{Src: 200, Dst: 201, SrcLabel: "C", DstLabel: "C", Label: "acquired"})
	m.Add(Edge{Src: 300, Dst: 301, SrcLabel: "C", DstLabel: "C", Label: "acquired"})

	entered, left := m.Transitions()
	if len(entered) == 0 || len(left) != 0 {
		t.Fatalf("initial transitions: entered=%d left=%d", len(entered), len(left))
	}
	chainClosedBefore := false
	for _, p := range m.ClosedPatterns(0) {
		if len(p.Edges) == 2 {
			chainClosedBefore = true
		}
	}
	if !chainClosedBefore {
		t.Fatal("chain pattern not closed before eviction")
	}

	// Remove seqs 0 and 1: the first chain instance dies; chain support 2 < 3.
	m.Remove(0)
	m.Remove(1)
	entered, left = m.Transitions()
	chainLeft := false
	for _, p := range left {
		if len(p.Edges) == 2 {
			chainLeft = true
		}
	}
	if !chainLeft {
		t.Fatalf("chain should have left the frequent set: left=%+v", left)
	}
	// The 1-edge acquired pattern must now be closed (reconstructed as the
	// maximal frequent pattern).
	foundAcquired := false
	for _, p := range m.ClosedPatterns(0) {
		if len(p.Edges) == 1 && p.Edges[0].Label == "acquired" {
			foundAcquired = true
			if p.Support < 3 {
				t.Fatalf("reconstructed pattern support = %d", p.Support)
			}
		}
	}
	if !foundAcquired {
		t.Fatal("1-edge acquired pattern not reconstructed into closed set")
	}
}

func TestPatternString(t *testing.T) {
	p := Pattern{
		VertexLabels: []string{"Company", "Company", "Product"},
		Edges: []PatternEdge{
			{Src: 0, Dst: 1, Label: "acquired"},
			{Src: 1, Dst: 2, Label: "manufactures"},
		},
	}
	want := "(Company a)-[acquired]->(Company b); (Company b)-[manufactures]->(Product c)"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestGSpanKnownDB(t *testing.T) {
	// Two transactions share the chain C-acquired->C-manufactures->P; one
	// has an extra edge.
	mk := func(extra bool) TxGraph {
		tx := TxGraph{
			VertexLabels: []string{"C", "C", "P"},
			Edges: []TxEdge{
				{Src: 0, Dst: 1, Label: "acquired"},
				{Src: 1, Dst: 2, Label: "manufactures"},
			},
		}
		if extra {
			tx.VertexLabels = append(tx.VertexLabels, "C")
			tx.Edges = append(tx.Edges, TxEdge{Src: 0, Dst: 3, Label: "invests"})
		}
		return tx
	}
	db := []TxGraph{mk(false), mk(true)}
	ps, err := GSpan(db, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// expected frequent with support 2: acquired edge, manufactures edge,
	// and the 2-edge chain. The invests edge has support 1.
	if len(ps) != 3 {
		t.Fatalf("gspan found %d patterns: %+v", len(ps), ps)
	}
	for _, p := range ps {
		if p.Support != 2 {
			t.Fatalf("support = %d for %s", p.Support, p)
		}
	}
	closed, err := GSpanClosed(db, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(closed) != 1 || len(closed[0].Edges) != 2 {
		t.Fatalf("gspan closed = %+v", closed)
	}
}

func TestGSpanDirectionality(t *testing.T) {
	// a->b in tx1, b->a in tx2 with identical labels: each direction has
	// support 1 only if the pattern is direction-sensitive... here vertex
	// labels are equal so a->b and b->a are isomorphic; support must be 2.
	db := []TxGraph{
		{VertexLabels: []string{"C", "C"}, Edges: []TxEdge{{0, 1, "acquired"}}},
		{VertexLabels: []string{"C", "C"}, Edges: []TxEdge{{1, 0, "acquired"}}},
	}
	ps, err := GSpan(db, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Support != 2 {
		t.Fatalf("patterns = %+v", ps)
	}
	// With distinct vertex labels direction must separate patterns.
	db2 := []TxGraph{
		{VertexLabels: []string{"C", "P"}, Edges: []TxEdge{{0, 1, "makes"}}},
		{VertexLabels: []string{"C", "P"}, Edges: []TxEdge{{1, 0, "makes"}}},
	}
	ps2, err := GSpan(db2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps2) != 2 {
		t.Fatalf("direction collapsed: %+v", ps2)
	}
}

func TestGSpanSelfLoop(t *testing.T) {
	db := []TxGraph{
		{VertexLabels: []string{"C"}, Edges: []TxEdge{{0, 0, "references"}}},
		{VertexLabels: []string{"C"}, Edges: []TxEdge{{0, 0, "references"}}},
	}
	ps, err := GSpan(db, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || len(ps[0].VertexLabels) != 1 {
		t.Fatalf("self-loop pattern = %+v", ps)
	}
}

func TestGSpanRejectsOversizedTransaction(t *testing.T) {
	tx := TxGraph{VertexLabels: []string{"C", "C"}}
	for i := 0; i < 65; i++ {
		tx.Edges = append(tx.Edges, TxEdge{0, 1, "r"})
	}
	if _, err := GSpan([]TxGraph{tx}, 1, 2); err == nil {
		t.Fatal("oversized transaction accepted")
	}
	bad := TxGraph{VertexLabels: []string{"C"}, Edges: []TxEdge{{0, 5, "r"}}}
	if _, err := GSpan([]TxGraph{bad}, 1, 2); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestGSpanMatchesMineWindowOnPartitionedStream(t *testing.T) {
	// When each transaction is one connected component, embedding-level
	// enumeration and transactional gSpan agree on which patterns exist
	// (supports differ by definition: embeddings vs transactions).
	stream := []Edge{
		e(1, 2, "acquired"), e(2, 3, "partnersWith"),
		e(11, 12, "acquired"), e(12, 13, "partnersWith"),
		e(21, 22, "acquired"), e(22, 23, "partnersWith"),
	}
	emb := MineWindow(stream, Config{MaxEdges: 2, MinSupport: 3})
	var txs []TxGraph
	for i := 0; i < 3; i++ {
		txs = append(txs, TxGraph{
			VertexLabels: []string{"C", "C", "C"},
			Edges:        []TxEdge{{0, 1, "acquired"}, {1, 2, "partnersWith"}},
		})
	}
	gs, err := GSpan(txs, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb) != len(gs) {
		t.Fatalf("pattern sets differ: stream %d vs gspan %d", len(emb), len(gs))
	}
	embCodes := map[string]bool{}
	for _, p := range emb {
		embCodes[p.Code] = true
	}
	for _, p := range gs {
		if !embCodes[p.Code] {
			t.Fatalf("gspan pattern %s missing from stream miner", p)
		}
	}
}

func TestTransactionsFromEdges(t *testing.T) {
	stream := []Edge{
		e(1, 2, "acquired"),
		e(1, 3, "partnersWith"),
		e(4, 5, "acquired"),
	}
	txs := TransactionsFromEdges(stream, 2)
	if len(txs) != 1 {
		t.Fatalf("transactions = %+v", txs)
	}
	if len(txs[0].Edges) != 2 {
		t.Fatalf("center tx edges = %+v", txs[0].Edges)
	}
}

func TestEmbeddingsTouchedGrows(t *testing.T) {
	m := NewMiner(Config{MaxEdges: 2, MinSupport: 1})
	m.Add(e(1, 2, "acquired"))
	first := m.EmbeddingsTouched()
	m.Add(e(2, 3, "acquired"))
	if m.EmbeddingsTouched() <= first {
		t.Fatal("work counter not growing")
	}
}

// benchStream draws edges over a wide vertex space (realistic KG sparsity;
// the 8-vertex correctness streams would be pathologically dense at
// benchmark window sizes).
func benchStream(n int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"acquired", "partnersWith", "invests", "manufactures"}
	vlabels := []string{"C", "P"}
	out := make([]Edge, n)
	for i := range out {
		s := int64(rng.Intn(300))
		d := int64(rng.Intn(300))
		for d == s {
			d = int64(rng.Intn(300))
		}
		out[i] = Edge{
			Src: s, Dst: d,
			SrcLabel: vlabels[s%2], DstLabel: vlabels[d%2],
			Label: labels[rng.Intn(len(labels))],
		}
	}
	return out
}

func BenchmarkStreamingAdd(b *testing.B) {
	stream := benchStream(20000, 3)
	m := NewMiner(Config{MaxEdges: 3, MinSupport: 5, WindowSize: 2000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(stream[i%len(stream)])
	}
}

func BenchmarkMineWindowFromScratch(b *testing.B) {
	stream := benchStream(2000, 4)
	cfg := Config{MaxEdges: 3, MinSupport: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MineWindow(stream, cfg)
	}
}

func BenchmarkGSpan(b *testing.B) {
	stream := benchStream(1000, 5)
	txs := TransactionsFromEdges(stream, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GSpan(txs, 5, 3); err != nil {
			b.Fatal(err)
		}
	}
}
