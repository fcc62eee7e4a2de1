package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAddEdgesBatch covers the bulk write path: contiguous IDs, index
// wiring and full-field round trips.
func TestAddEdgesBatch(t *testing.T) {
	g := New()
	var vids []VertexID
	for i := 0; i < 40; i++ {
		vids = append(vids, g.AddVertex("V", ""))
	}
	specs := make([]EdgeSpec, 0, 100)
	for i := 0; i < 100; i++ {
		specs = append(specs, EdgeSpec{
			Src: vids[i%len(vids)], Dst: vids[(i*7+3)%len(vids)],
			Label: fmt.Sprintf("rel%d", i%3), Weight: float64(i) / 100,
			Timestamp: int64(i), Row: FactRow{Doc: fmt.Sprint(i)},
		})
	}
	ids, err := g.AddEdges(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(specs) {
		t.Fatalf("got %d ids for %d specs", len(ids), len(specs))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("ids not contiguous: %v then %v", ids[i-1], ids[i])
		}
	}
	if g.NumEdges() != 100 {
		t.Fatalf("NumEdges = %d, want 100", g.NumEdges())
	}
	for i, id := range ids {
		e, ok := g.Edge(id)
		if !ok {
			t.Fatalf("edge %d missing", id)
		}
		if e.Src != specs[i].Src || e.Dst != specs[i].Dst || e.Label != specs[i].Label ||
			e.Weight != specs[i].Weight || e.Timestamp != specs[i].Timestamp || e.Row.Doc != fmt.Sprint(i) {
			t.Fatalf("edge %d fields lost: %+v vs spec %+v", id, e, specs[i])
		}
	}
	sumOut := 0
	for _, v := range vids {
		sumOut += len(outEdges(g, v))
	}
	if sumOut != 100 {
		t.Fatalf("sum of out-degrees = %d, want 100", sumOut)
	}
}

func TestAddEdgesValidatesAtomically(t *testing.T) {
	g := New()
	a := g.AddVertex("A", "")
	b := g.AddVertex("B", "")
	_, err := g.AddEdges([]EdgeSpec{
		{Src: a, Dst: b, Label: "ok"},
		{Src: a, Dst: 999, Label: "bad"},
	})
	if err == nil {
		t.Fatal("expected error for missing endpoint")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("batch with invalid spec inserted %d edges, want 0", g.NumEdges())
	}
}

// TestAddVertexRowAtomic: each vertex write lands whole and in order. A
// writer creates a named vertex, appends two aliases and then relabels it;
// no reader may observe a vertex without its name, with aliases out of
// order, or relabelled without both aliases.
func TestAddVertexRowAtomic(t *testing.T) {
	g := New()
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < 2000; i++ {
			id := g.AddVertex("Any", "x")
			g.AddVertexAlias(id, "a")
			g.AddVertexAlias(id, "b")
			g.SetVertexLabel(id, "P")
		}
	}()
	want := []string{"a", "b"}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, id := range vertexIDs(g) {
					v, ok := g.Vertex(id)
					if !ok {
						continue
					}
					if v.Name != "x" || !slices.Equal(v.Aliases, want[:len(v.Aliases)]) ||
						(v.Label == "P" && len(v.Aliases) != len(want)) {
						t.Errorf("observed a partial vertex row: %+v", v)
						return
					}
				}
			}
		}()
	}
	writer.Wait()
	close(done)
	readers.Wait()
}

// TestConcurrentMutationStress hammers the store from many goroutines —
// vertex inserts, single and batch edge inserts, removals, edge mutations
// and a full set of readers — then checks the slab and adjacency
// invariants. Run under -race this doubles as the data-race gate for the
// graph's locking.
func TestConcurrentMutationStress(t *testing.T) {
	g := New()
	const nVerts = 64
	var vids []VertexID
	for i := 0; i < nVerts; i++ {
		vids = append(vids, g.AddVertex("V", ""))
	}

	var (
		wg      sync.WaitGroup
		idMu    sync.Mutex
		edgeIDs []EdgeID
	)
	record := func(ids ...EdgeID) {
		idMu.Lock()
		edgeIDs = append(edgeIDs, ids...)
		idMu.Unlock()
	}
	randomKnownEdge := func(rng *rand.Rand) (EdgeID, bool) {
		idMu.Lock()
		defer idMu.Unlock()
		if len(edgeIDs) == 0 {
			return 0, false
		}
		return edgeIDs[rng.Intn(len(edgeIDs))], true
	}

	// Single-edge writers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				id, err := g.AddEdge(vids[rng.Intn(nVerts)], vids[rng.Intn(nVerts)], "r")
				if err != nil {
					t.Error(err)
					return
				}
				record(id)
			}
		}(int64(w))
	}
	// Batch writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 30; i++ {
				specs := make([]EdgeSpec, 10)
				for j := range specs {
					specs[j] = EdgeSpec{Src: vids[rng.Intn(nVerts)], Dst: vids[rng.Intn(nVerts)], Label: "b", Weight: 1}
				}
				ids, err := g.AddEdges(specs)
				if err != nil {
					t.Error(err)
					return
				}
				record(ids...)
			}
		}(int64(w))
	}
	// Removers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(200 + seed))
			for i := 0; i < 134; i++ {
				if id, ok := randomKnownEdge(rng); ok {
					g.RemoveEdge(id)
				}
			}
		}(int64(w))
	}
	// Vertex writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			id := g.AddVertex("Any", fmt.Sprint(i))
			g.AddVertexAlias(id, "w")
			g.SetVertexLabel(id, "W")
		}
	}()
	// Readers over every access path.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(300 + seed))
			for i := 0; i < 200; i++ {
				v := vids[rng.Intn(nVerts)]
				outEdges(g, v)
				inEdges(g, v)
				incidentEdges(g, v)
				g.Neighbors(v)
				g.Degree(v)
				countLabel(g, "r")
				liveEdgeIDs(g)
				g.NumEdges()
				g.NumVertices()
				if id, ok := randomKnownEdge(rng); ok {
					g.Edge(id)
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Quiesced invariants: adjacency, edge slabs and the edge count agree.
	sumOut, sumIn := 0, 0
	for _, id := range vertexIDs(g) {
		sumOut += len(outEdges(g, id))
		sumIn += len(inEdges(g, id))
	}
	if n := g.NumEdges(); sumOut != n || sumIn != n {
		t.Fatalf("degree sums (out=%d in=%d) disagree with NumEdges=%d", sumOut, sumIn, n)
	}
	if n, live := g.NumEdges(), len(liveEdgeIDs(g)); n != live {
		t.Fatalf("NumEdges=%d but a scan finds %d live edges", n, live)
	}
	for _, id := range liveEdgeIDs(g) {
		e, ok := g.Edge(id)
		if !ok {
			t.Fatalf("a scan lists %d but Edge misses it", id)
		}
		if !g.HasVertex(e.Src) || !g.HasVertex(e.Dst) {
			t.Fatalf("edge %d has dangling endpoint", id)
		}
	}
}

// TestConcurrentPageRankDuringWrites compiles views and runs PageRank
// concurrently with writers to confirm those read paths tolerate live
// mutation.
func TestConcurrentPageRankDuringWrites(t *testing.T) {
	g := New()
	var vids []VertexID
	for i := 0; i < 50; i++ {
		vids = append(vids, g.AddVertex("V", ""))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		g.AddEdge(vids[rng.Intn(len(vids))], vids[rng.Intn(len(vids))], "r")
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(10))
		for {
			select {
			case <-stop:
				return
			default:
				g.AddEdge(vids[rng.Intn(len(vids))], vids[rng.Intn(len(vids))], "r")
			}
		}
	}()
	for i := 0; i < 5; i++ {
		pr := Compile(g, nil).PageRank(0.85, 5, nil)
		if pr.Len() == 0 {
			t.Fatal("empty PageRank on populated graph")
		}
	}
	close(stop)
	writer.Wait()
}

// TestCompileIsExactCut runs Compile with no outer lock beside one writer
// that adds edges in batches of 16. Each edge is stamped with its write
// index. Every view must hold exactly a prefix of the writes: writes 0..k-1
// and nothing else. A compile that read the graph in more than one lock
// acquisition — a part of the slab, then the rest — would break this
// whenever a batch landed between two of its reads: the view would hold the
// batch's edges in the part still ahead but not those in the part passed.
func TestCompileIsExactCut(t *testing.T) {
	g := New()
	a, b := g.AddVertex("V", ""), g.AddVertex("V", "")
	const batches = 300
	var done atomic.Bool
	var views, torn atomic.Int64
	var ready, readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		ready.Add(1)
		readers.Add(1)
		go func() {
			defer readers.Done()
			for first := true; ; first = false {
				v := Compile(g, nil)
				views.Add(1)
				// Every edge goes into b, so the view orders them by edge
				// ID: write i must sit at offset i.
				for i, ts := range v.ts {
					if ts != int64(i) {
						torn.Add(1)
						break
					}
				}
				if first {
					ready.Done()
				}
				if done.Load() {
					return
				}
			}
		}()
	}
	ready.Wait()
	batch := make([]EdgeSpec, 16)
	for w := 0; w < batches*len(batch); w += len(batch) {
		for i := range batch {
			batch[i] = EdgeSpec{Src: a, Dst: b, Label: "r", Weight: 1, Timestamp: int64(w + i)}
		}
		if _, err := g.AddEdges(batch); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	readers.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d of %d views are not a prefix of the writes", n, views.Load())
	}
}

// TestConcurrentRemoveEdgeStress mirrors the add-path stress tests for the
// removal path: writers add timestamped edges while removers delete them and
// readers traverse. Under -race this exercises RemoveEdge against concurrent
// writers and readers; the final reconciliation asserts that no adjacency
// list or slab retains a removed edge.
func TestConcurrentRemoveEdgeStress(t *testing.T) {
	g := New()
	var verts []VertexID
	for i := 0; i < 10; i++ {
		verts = append(verts, g.AddVertex("Company", ""))
	}
	const workers, perWorker = 4, 150
	idCh := make(chan EdgeID, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id, err := addEdge(g, verts[(w+i)%len(verts)], verts[(w+i+1)%len(verts)],
					"acquired", 1, int64(i), FactRow{})
				if err != nil {
					t.Error(err)
					return
				}
				idCh <- id
			}
		}(w)
	}
	var removers sync.WaitGroup
	var removedCount atomic.Int64
	for r := 0; r < 2; r++ {
		removers.Add(1)
		go func() {
			defer removers.Done()
			for id := range idCh {
				// Two removers may race on the same ID stream; exactly one
				// RemoveEdge per ID succeeds.
				if g.RemoveEdge(id) {
					removedCount.Add(1)
				}
				if g.RemoveEdge(id) {
					t.Errorf("edge %d removed twice", id)
				}
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, v := range verts {
					outEdges(g, v)
					g.Degree(v)
				}
				countLabel(g, "acquired")
			}
		}
	}()
	wg.Wait()
	close(idCh)
	removers.Wait()
	close(stop)
	readers.Wait()

	if got := int(removedCount.Load()); got != workers*perWorker {
		t.Fatalf("removed %d edges, want %d", got, workers*perWorker)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after removing everything", g.NumEdges())
	}
	for _, v := range verts {
		if d := g.Degree(v); d != 0 {
			t.Fatalf("vertex %d retains %d adjacency entries", v, d)
		}
	}
	if es := liveEdgeIDs(g); len(es) != 0 {
		t.Fatalf("slabs retain %d edges", len(es))
	}
}

// TestMultipleMutationHooks pins the AddMutationHook fan-out contract: every
// subscriber sees every mutation in registration order, and removing one
// detaches only that one, even when two subscribers share a function value.
func TestMultipleMutationHooks(t *testing.T) {
	g := New()
	var order []string
	var c int
	count := func(Mutation) { c++ }
	removeA := g.AddMutationHook(func(Mutation) { order = append(order, "a") })
	g.AddMutationHook(func(Mutation) { order = append(order, "b") })
	removeC1 := g.AddMutationHook(count)
	g.AddMutationHook(count)

	v1 := g.AddVertex("Company", "")
	v2 := g.AddVertex("Company", "")
	if _, err := g.AddEdge(v1, v2, "acquired"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "a", "b", "a", "b"}; !slices.Equal(order, want) || c != 6 {
		t.Fatalf("deliveries = %v and %d counts, want %v and 6", order, c, want)
	}

	removeA()
	removeC1()
	removeC1() // removing twice is a no-op
	order, c = nil, 0
	g.AddVertex("Company", "")
	if !slices.Equal(order, []string{"b"}) || c != 1 {
		t.Fatalf("after removal: deliveries = %v and %d counts, want [b] and 1", order, c)
	}
}
