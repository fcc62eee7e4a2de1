package temporal

import (
	"math"
	"sync"
	"testing"

	"nous/internal/graph"
)

// addEdge inserts one weight-1 edge through AddEdges; curated sets the only
// fact-row field the temporal layer reads.
func addEdge(g *graph.Graph, src, dst graph.VertexID, label string, ts int64, curated bool) (graph.EdgeID, error) {
	ids, err := g.AddEdges([]graph.EdgeSpec{{Src: src, Dst: dst, Label: label, Weight: 1, Timestamp: ts, Row: graph.FactRow{Curated: curated}}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

func TestWindowZeroValueIsUnbounded(t *testing.T) {
	var w Window
	if !w.IsAll() || w.Bounded() {
		t.Fatal("zero window must be unbounded")
	}
	for _, ts := range []int64{math.MinInt64, -62135596800, 0, 1, math.MaxInt64} {
		if !w.Contains(ts) {
			t.Fatalf("unbounded window rejected %d", ts)
		}
	}
	if !(Window{Since: math.MinInt64, Until: math.MaxInt64}).IsAll() {
		t.Fatal("explicit full-range window must be IsAll")
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Since: 10, Until: 20}
	for ts, want := range map[int64]bool{9: false, 10: true, 19: true, 20: false, -5: false} {
		if got := w.Contains(ts); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", ts, got, want)
		}
	}
}

func TestWindowContainsEdgeCuratedAlwaysPasses(t *testing.T) {
	g := graph.New()
	a, b := g.AddVertex("Company", ""), g.AddVertex("Company", "")
	curated, _ := addEdge(g, a, b, "acquired", Timeless, true)
	extractedIn, _ := addEdge(g, a, b, "acquired", 150, false)
	extractedOut, _ := addEdge(g, a, b, "acquired", 50, false)
	contains := func(w Window, id graph.EdgeID) (in bool) {
		g.ScanEdge(id, func(e *graph.EdgeScan) { in = w.ContainsScan(e) })
		return in
	}
	w := Window{Since: 100, Until: 200}
	if !contains(w, curated) {
		t.Fatal("curated edge must pass any window")
	}
	if !contains(w, extractedIn) || contains(w, extractedOut) {
		t.Fatal("extracted edges must be scoped by timestamp")
	}
	if !contains(All(), extractedOut) {
		t.Fatal("unbounded window must pass everything")
	}
}

func TestWindowIntersect(t *testing.T) {
	a := Window{Since: 10, Until: 100}
	b := Window{Since: 50, Until: 200}
	got := a.Intersect(b)
	if got.Since != 50 || got.Until != 100 {
		t.Fatalf("intersect = %+v", got)
	}
	if x := All().Intersect(a); x != a {
		t.Fatalf("All ∩ a = %+v", x)
	}
	if x := a.Intersect(All()); x != a {
		t.Fatalf("a ∩ All = %+v", x)
	}
	empty := (Window{Since: 10, Until: 20}).Intersect(Window{Since: 30, Until: 40})
	if empty.Contains(15) || empty.Contains(35) {
		t.Fatal("disjoint intersection must contain nothing")
	}
	// A disjoint pair straddling ts=0 must not collapse to the zero value
	// (which would read as unbounded): (-inf, 0) ∩ [0, +inf) = nothing.
	zeroish := (Window{Since: math.MinInt64, Until: 0}).Intersect(Window{Since: 0, Until: math.MaxInt64})
	if zeroish.IsAll() {
		t.Fatal("disjoint intersection at ts=0 flipped to unbounded")
	}
	for _, ts := range []int64{-1, 0, 1} {
		if zeroish.Contains(ts) {
			t.Fatalf("empty intersection contains %d", ts)
		}
	}
	if Empty().Contains(0) || Empty().IsAll() {
		t.Fatal("Empty() must contain nothing and not be unbounded")
	}
}

func TestIndexTracksAddsAndRemoves(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()

	var ids []graph.EdgeID
	for _, ts := range []int64{30, 10, 20, 40} {
		id, err := addEdge(g, a, b, "acquired", ts, false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	in := ix.EdgesIn(Window{Since: 10, Until: 31})
	if len(in) != 3 {
		t.Fatalf("EdgesIn = %v, want 3 edges", in)
	}
	// Ordered by (ts, id): ts 10, 20, 30 → ids[1], ids[2], ids[0].
	if in[0] != ids[1] || in[1] != ids[2] || in[2] != ids[0] {
		t.Fatalf("EdgesIn order = %v", in)
	}
	if n := len(ix.EdgesIn(Window{Since: 35, Until: 100})); n != 1 {
		t.Fatalf("len(EdgesIn) = %d, want 1", n)
	}

	g.RemoveEdge(ids[2]) // ts 20
	if ix.Len() != 3 {
		t.Fatalf("Len after remove = %d, want 3", ix.Len())
	}
	if n := len(ix.EdgesIn(Window{Since: 15, Until: 25})); n != 0 {
		t.Fatalf("removed edge still indexed (count %d)", n)
	}
	min, max, ok := ix.Span()
	if !ok || min != 10 || max != 40 {
		t.Fatalf("Span = (%d, %d, %v)", min, max, ok)
	}
}

func TestLatestIn(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()
	var ids []graph.EdgeID
	for ts := int64(0); ts < 20; ts++ {
		id, err := addEdge(g, a, b, "acquired", ts, false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	got := ix.LatestIn(All(), 3)
	if len(got) != 3 || got[0] != ids[17] || got[1] != ids[18] || got[2] != ids[19] {
		t.Fatalf("LatestIn(All, 3) = %v, want newest three oldest-first", got)
	}
	got = ix.LatestIn(Window{Since: 5, Until: 10}, 2)
	if len(got) != 2 || got[0] != ids[8] || got[1] != ids[9] {
		t.Fatalf("LatestIn(window, 2) = %v", got)
	}
	if got := ix.LatestIn(Empty(), 5); len(got) != 0 {
		t.Fatalf("LatestIn(Empty) = %v", got)
	}
	if got := ix.LatestIn(All(), 0); got != nil {
		t.Fatalf("LatestIn(k=0) = %v", got)
	}
	if got := ix.LatestIn(All(), 100); len(got) != 20 {
		t.Fatalf("LatestIn(k>len) returned %d", len(got))
	}
}

// TestLatestInSkipsTimeless: with fewer than k dated edges in the window,
// the feed is the dated edges alone — the undated substrate at the timeless
// sentinel never fills it.
func TestLatestInSkipsTimeless(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()
	for i := 0; i < 4; i++ {
		if _, err := addEdge(g, a, b, "acquired", Timeless, false); err != nil {
			t.Fatal(err)
		}
	}
	var dated []graph.EdgeID
	for _, ts := range []int64{10, 20} {
		id, err := addEdge(g, a, b, "acquired", ts, false)
		if err != nil {
			t.Fatal(err)
		}
		dated = append(dated, id)
	}
	got := ix.LatestIn(All(), 5)
	if len(got) != 2 || got[0] != dated[0] || got[1] != dated[1] {
		t.Fatalf("LatestIn(All, 5) = %v, want only the dated edges %v", got, dated)
	}
	if got := ix.LatestIn(Window{Since: math.MinInt64, Until: 15}, 5); len(got) != 1 || got[0] != dated[0] {
		t.Fatalf("LatestIn(before 15, 5) = %v, want %v", got, dated[:1])
	}
}

func TestIndexEmptyWindowQueries(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()
	for _, ts := range []int64{10, 20, 30} {
		if _, err := addEdge(g, a, b, "acquired", ts, false); err != nil {
			t.Fatal(err)
		}
	}
	// Empty and inverted windows (disjoint intersections produce them) must
	// return nothing — not panic or go negative.
	for _, w := range []Window{Empty(), {Since: 25, Until: 15}, {Since: 15, Until: 15}} {
		if ids := ix.EdgesIn(w); len(ids) != 0 {
			t.Fatalf("EdgesIn(%+v) = %v, want none", w, ids)
		}
	}
}

func TestSpanExcludesTimelessSubstrate(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()
	// A curated fact's edge carries the zero-provenance-time sentinel; it
	// must not drag the reported span back to year 1.
	if _, err := addEdge(g, a, b, "manufactures", Timeless, true); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ix.Span(); ok {
		t.Fatal("timeless-only index reported a dated span")
	}
	if _, err := addEdge(g, a, b, "acquired", 1000, false); err != nil {
		t.Fatal(err)
	}
	if _, err := addEdge(g, a, b, "acquired", 2000, false); err != nil {
		t.Fatal(err)
	}
	min, max, ok := ix.Span()
	if !ok || min != 1000 || max != 2000 {
		t.Fatalf("Span = (%d, %d, %v), want dated range (1000, 2000)", min, max, ok)
	}
	st := ix.Stats()
	if st.Edges != 3 || st.MinTimestamp != 1000 || st.MaxTimestamp != 2000 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestDatedInSkipsTimelessSubstrate(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()
	if _, err := addEdge(g, a, b, "manufactures", Timeless, true); err != nil {
		t.Fatal(err)
	}
	e1, err := addEdge(g, a, b, "acquired", 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := addEdge(g, a, b, "acquired", 2000, false)
	if err != nil {
		t.Fatal(err)
	}
	// A window unbounded below spans the timeless sentinel; DatedIn must
	// skip the substrate where EdgesIn would materialize it.
	below := Window{Since: math.MinInt64, Until: 1500}
	if ids := ix.DatedIn(below); len(ids) != 1 || ids[0] != e1 {
		t.Fatalf("DatedIn(unbounded below) = %v, want just the dated edge %v", ids, e1)
	}
	if ids := ix.EdgesIn(below); len(ids) != 2 {
		t.Fatalf("EdgesIn(unbounded below) = %v, want sentinel + dated", ids)
	}
	if ids := ix.DatedIn(Window{}); len(ids) != 2 || ids[0] != e1 || ids[1] != e2 {
		t.Fatalf("DatedIn(all) = %v, want both dated edges in order", ids)
	}
	if ids := ix.DatedIn(Window{Since: 1500, Until: 2500}); len(ids) != 1 || ids[0] != e2 {
		t.Fatalf("DatedIn(bounded) = %v, want %v", ids, e2)
	}
}

func TestIndexScansPreexistingEdges(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	if _, err := addEdge(g, a, b, "acquired", 7, false); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(g)
	if ix.Len() != 1 || len(ix.EdgesIn(Window{Since: 7, Until: 8})) != 1 {
		t.Fatal("pre-existing edge not indexed")
	}
}

func TestIndexRebuildMatchesGraph(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	var ids []graph.EdgeID
	for ts := int64(0); ts < 10; ts++ {
		id, err := addEdge(g, a, b, "acquired", ts, false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	g.RemoveEdge(ids[3])
	ix := NewIndex(g)
	if ix.Len() != g.NumEdges() {
		t.Fatalf("index %d edges, graph %d", ix.Len(), g.NumEdges())
	}
	ix.Rebuild()
	if ix.Len() != g.NumEdges() {
		t.Fatalf("after rebuild: index %d edges, graph %d", ix.Len(), g.NumEdges())
	}
	// Every indexed edge must exist with the indexed timestamp order.
	prev := int64(math.MinInt64)
	for _, id := range ix.EdgesIn(All()) {
		e, ok := g.Edge(id)
		if !ok {
			t.Fatalf("index holds removed edge %d", id)
		}
		if e.Timestamp < prev {
			t.Fatalf("EdgesIn out of time order at edge %d", id)
		}
		prev = e.Timestamp
	}
}

func TestIndexDetachStopsTracking(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	if _, err := addEdge(g, a, b, "acquired", 1, false); err != nil {
		t.Fatal(err)
	}
	ix.Detach()
	if _, err := addEdge(g, a, b, "acquired", 2, false); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1 {
		t.Fatalf("detached index tracked a write (len %d)", ix.Len())
	}
}

// TestIndexNoGhostEntriesUnderScavenging pins the mutation-ordering
// contract: a remover that *discovers* edges through graph reads (not
// through the writer's return value) must never get its MutRemoveEdge
// delivered before the edge's MutAddEdges — otherwise the index would
// permanently hold a ghost entry for a deleted edge.
func TestIndexNoGhostEntriesUnderScavenging(t *testing.T) {
	liveEdgeIDs := func(g *graph.Graph) []graph.EdgeID {
		var ids []graph.EdgeID
		g.ScanEdges(func(e *graph.EdgeScan) bool {
			ids = append(ids, e.ID)
			return true
		})
		return ids
	}
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()

	stop := make(chan struct{})
	var scav sync.WaitGroup
	scav.Add(1)
	go func() {
		defer scav.Done()
		for {
			for _, id := range liveEdgeIDs(g) {
				g.RemoveEdge(id)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if _, err := addEdge(g, a, b, "acquired", int64(i), false); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := g.AddEdges([]graph.EdgeSpec{
				{Src: a, Dst: b, Label: "acquired", Weight: 1, Timestamp: int64(i)},
				{Src: b, Dst: a, Label: "acquired", Weight: 1, Timestamp: int64(i)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	scav.Wait()
	// Drain whatever the scavenger did not reach.
	for _, id := range liveEdgeIDs(g) {
		g.RemoveEdge(id)
	}
	if ix.Len() != g.NumEdges() {
		t.Fatalf("index %d entries, graph %d edges (ghost entries)", ix.Len(), g.NumEdges())
	}
	for _, id := range ix.EdgesIn(All()) {
		if _, ok := g.Edge(id); !ok {
			t.Fatalf("index holds removed edge %d", id)
		}
	}
}

// TestIndexConcurrentAddRemove races writers, removers and window readers
// against one index; run under -race it exercises the index lock, and
// the final reconciliation asserts index == graph.
func TestIndexConcurrentAddRemove(t *testing.T) {
	g := graph.New()
	var verts []graph.VertexID
	for i := 0; i < 8; i++ {
		verts = append(verts, g.AddVertex("Company", ""))
	}
	ix := Attach(g)
	defer ix.Detach()

	const perWorker = 200
	var wg sync.WaitGroup
	idCh := make(chan graph.EdgeID, 4*perWorker)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id, err := addEdge(g, verts[i%len(verts)], verts[(i+1)%len(verts)],
					"acquired", int64(w*perWorker+i), false)
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					idCh <- id
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for id := range idCh {
			g.RemoveEdge(id)
		}
	}()
	// Concurrent readers.
	stop := make(chan struct{})
	var qg sync.WaitGroup
	qg.Add(1)
	go func() {
		defer qg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ix.EdgesIn(Window{Since: 100, Until: 500})
				ix.EdgesIn(Window{Since: 0, Until: 50})
				ix.Span()
			}
		}
	}()
	wg.Wait()
	close(idCh)
	rg.Wait()
	close(stop)
	qg.Wait()

	if ix.Len() != g.NumEdges() {
		t.Fatalf("index %d edges, graph %d", ix.Len(), g.NumEdges())
	}
	for _, id := range ix.EdgesIn(All()) {
		if _, ok := g.Edge(id); !ok {
			t.Fatalf("index holds removed edge %d", id)
		}
	}
}

// TestIndexReverseChronologicalBackfill drives the worst case of the old
// insertion-sort path — every insert lands in front of everything already
// indexed — and checks reads still see a fully (ts, id)-ordered index. The
// live path appends and defers sorting to the next read, so this is also the
// correctness gate for the lazy per-stripe flush.
func TestIndexReverseChronologicalBackfill(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()

	const n = 500
	ids := make([]graph.EdgeID, n)
	for i := 0; i < n; i++ {
		id, err := addEdge(g, a, b, "acquired", int64(n-i), false)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	got := ix.EdgesIn(All())
	if len(got) != n {
		t.Fatalf("EdgesIn = %d edges, want %d", len(got), n)
	}
	// Timestamps n..1 were inserted in reverse; sorted order is ids[n-1..0].
	for i, id := range got {
		if id != ids[n-1-i] {
			t.Fatalf("EdgesIn[%d] = %v, want %v", i, id, ids[n-1-i])
		}
	}
	if c := len(ix.EdgesIn(Window{Since: 1, Until: 11})); c != 10 {
		t.Fatalf("len(EdgesIn) = %d, want 10", c)
	}
	min, max, ok := ix.Span()
	if !ok || min != 1 || max != int64(n) {
		t.Fatalf("Span = (%d, %d, %v)", min, max, ok)
	}
}

// TestReverseBackfillAppendsWithoutSorting pins the write path's O(1) append:
// out-of-order inserts park in the run's unsorted tail (only the first entry
// joins the sorted run) and nothing sorts until a read. An insertion-sort
// write path — quadratic on a reverse-chronological import — would leave the
// run fully sorted here.
func TestReverseBackfillAppendsWithoutSorting(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()

	const n = 128
	for i := 0; i < n; i++ {
		if _, err := addEdge(g, a, b, "acquired", int64(n-i), false); err != nil {
			t.Fatal(err)
		}
	}
	if ix.sorted > 1 {
		t.Fatalf("sorted prefix %d of %d entries before any read, want <= 1", ix.sorted, len(ix.entries))
	}
	if len(ix.entries) > 1 && ix.sorted != 1 {
		t.Fatalf("sorted prefix %d, want 1 with a %d-entry tail", ix.sorted, len(ix.entries)-1)
	}
	if len(ix.entries) != n {
		t.Fatalf("run holds %d entries, want %d", len(ix.entries), n)
	}

	if got := len(ix.EdgesIn(All())); got != n {
		t.Fatalf("EdgesIn = %d edges, want %d", got, n)
	}
	if ix.sorted != len(ix.entries) {
		t.Fatalf("after read: sorted %d of %d entries, want all", ix.sorted, len(ix.entries))
	}
}

// TestIndexInterleavedOutOfOrderInsertAndRead alternates out-of-order writes
// with reads so every read finds a fresh unsorted tail to flush.
func TestIndexInterleavedOutOfOrderInsertAndRead(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()

	want := 0
	for i := 0; i < 100; i++ {
		ts := int64(1000 - i) // strictly decreasing: always out of order
		if _, err := addEdge(g, a, b, "acquired", ts, false); err != nil {
			t.Fatal(err)
		}
		want++
		if got := len(ix.EdgesIn(Window{Since: ts, Until: 2000})); got != want {
			t.Fatalf("after %d inserts len(EdgesIn) = %d, want %d", want, got, want)
		}
	}
}

// TestIndexRemoveWithPendingTail removes an edge whose entry is still parked
// in the unsorted append tail; the removal must flush and splice correctly.
func TestIndexRemoveWithPendingTail(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("Company", "")
	b := g.AddVertex("Company", "")
	ix := Attach(g)
	defer ix.Detach()

	var ids []graph.EdgeID
	for _, ts := range []int64{50, 10, 40, 20, 30} {
		id, err := addEdge(g, a, b, "acquired", ts, false)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	g.RemoveEdge(ids[3]) // ts 20, never read since insertion
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	if c := len(ix.EdgesIn(Window{Since: 15, Until: 25})); c != 0 {
		t.Fatalf("removed tail edge still counted (%d)", c)
	}
	in := ix.EdgesIn(All())
	if len(in) != 4 || in[0] != ids[1] || in[1] != ids[4] || in[2] != ids[2] || in[3] != ids[0] {
		t.Fatalf("EdgesIn after tail removal = %v", in)
	}
}
