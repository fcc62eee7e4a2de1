package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// scanIDs lists the IDs ScanEdgesFrom(from) visits, in visit order.
func scanIDs(g *Graph, from EdgeID) []EdgeID {
	var ids []EdgeID
	g.ScanEdgesFrom(from, func(e *EdgeScan) bool {
		ids = append(ids, e.ID)
		return true
	})
	return ids
}

// checkScanOrder holds g's whole-graph scan to its contract: the live edges,
// each once, in strictly increasing ID order, and every suffix scan the full
// scan filtered to IDs at or above its bound. live is the set of IDs g must
// hold.
func checkScanOrder(g *Graph, live map[EdgeID]bool) error {
	full := scanIDs(g, 0)
	for i := 1; i < len(full); i++ {
		if full[i] <= full[i-1] {
			return fmt.Errorf("ScanEdges visits %d after %d", full[i], full[i-1])
		}
	}
	want := make([]EdgeID, 0, len(live))
	for id := range live {
		want = append(want, id)
	}
	slices.Sort(want)
	if !slices.Equal(full, want) {
		return fmt.Errorf("ScanEdges visits %v, want %v", full, want)
	}
	var ids []EdgeID
	g.ScanEdges(func(e *EdgeScan) bool {
		ids = append(ids, e.ID)
		return true
	})
	if !slices.Equal(ids, full) {
		return fmt.Errorf("ScanEdges visits %v, ScanEdgesFrom(0) %v", ids, full)
	}
	bounds := []EdgeID{-5, 1 << 40, EdgeID(g.NextEdge()), EdgeID(g.NextEdge()) + 1}
	for i := 0; i < len(full); i += max(1, len(full)/8) {
		bounds = append(bounds, full[i]-1, full[i], full[i]+1)
	}
	for _, k := range bounds {
		var suffix []EdgeID
		for _, id := range full {
			if id >= k {
				suffix = append(suffix, id)
			}
		}
		if got := scanIDs(g, k); !slices.Equal(got, suffix) {
			return fmt.Errorf("ScanEdgesFrom(%d) visits %v, want %v", k, got, suffix)
		}
	}
	// A callback that returns false stops the scan at once.
	if len(full) > 0 {
		stop := len(full) / 2
		var seen []EdgeID
		g.ScanEdges(func(e *EdgeScan) bool {
			seen = append(seen, e.ID)
			return len(seen) <= stop
		})
		if !slices.Equal(seen, full[:stop+1]) {
			return fmt.Errorf("a scan stopped after %d edges visits %v, want %v", stop+1, seen, full[:stop+1])
		}
	}
	return nil
}

// checkIncidentOrder holds a restored graph's adjacency to the live one's:
// every vertex lists its incident edges in the same order in both, whatever
// edges the live graph removed along the way.
func checkIncidentOrder(live, restored *Graph) error {
	incident := func(g *Graph, v VertexID) []EdgeID {
		var ids []EdgeID
		g.ForEachIncidentScan(v, func(e *EdgeScan) bool {
			ids = append(ids, e.ID)
			return true
		})
		return ids
	}
	for v := VertexID(0); v < VertexID(live.NumVertices()); v++ {
		if a, b := incident(live, v), incident(restored, v); !slices.Equal(a, b) {
			return fmt.Errorf("vertex %d: the live graph lists incident edges %v, the restored one %v", v, a, b)
		}
	}
	return nil
}

// scanWorld builds graphs for the scan-order property from one seed.
type scanWorld struct {
	rng   *rand.Rand
	verts []VertexID
}

func newScanWorld(g *Graph, seed int64) *scanWorld {
	w := &scanWorld{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 3+w.rng.Intn(30); i++ {
		w.verts = append(w.verts, g.AddVertex("T", fmt.Sprintf("v%d", i)))
	}
	return w
}

func (w *scanWorld) edge() (src, dst VertexID) {
	return w.verts[w.rng.Intn(len(w.verts))], w.verts[w.rng.Intn(len(w.verts))]
}

// addAndRemove fills g with AddEdges batches and, when remove is set,
// removes a random part of what it added. It returns the live IDs.
func (w *scanWorld) addAndRemove(g *Graph, remove bool) (map[EdgeID]bool, error) {
	live := map[EdgeID]bool{}
	for b := w.rng.Intn(12); b >= 0; b-- {
		specs := make([]EdgeSpec, w.rng.Intn(80))
		for i := range specs {
			src, dst := w.edge()
			specs[i] = EdgeSpec{Src: src, Dst: dst, Label: "l", Weight: 1, Timestamp: w.rng.Int63n(100)}
		}
		ids, err := g.AddEdges(specs)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			live[id] = true
		}
		if !remove {
			continue
		}
		for id := range live {
			if w.rng.Intn(3) == 0 {
				if !g.RemoveEdge(id) {
					return nil, fmt.Errorf("RemoveEdge(%d) found no edge", id)
				}
				delete(live, id)
			}
		}
	}
	return live, nil
}

// TestScanEdgesIDOrderProperty: whichever way a graph was filled, ScanEdges
// yields its live edges in strictly increasing ID order, and ScanEdgesFrom(k)
// is that scan filtered to IDs ≥ k. The graphs are built four ways: AddEdges
// batches; AddEdges with RemoveEdge of random edges; RestoreEdges from a
// snapshot whose edge list is shuffled, so insertion order is not ID order;
// and ApplyReplicated records whose IDs leave gaps (re-delivered edges
// padding a batch, allocator jumps, removals).
func TestScanEdgesIDOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		fail := func(how string, err error) bool {
			t.Logf("seed %d, %s: %v", seed, how, err)
			return false
		}

		g := New()
		live, err := newScanWorld(g, seed).addAndRemove(g, false)
		if err == nil {
			err = checkScanOrder(g, live)
		}
		if err != nil {
			return fail("AddEdges", err)
		}

		g = New()
		w := newScanWorld(g, seed)
		live, err = w.addAndRemove(g, true)
		if err == nil {
			err = checkScanOrder(g, live)
		}
		if err != nil {
			return fail("AddEdges and RemoveEdge", err)
		}

		snap := g.Snapshot()
		es := snap.Edges
		w.rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		restored := New()
		restored.AdvanceIDs(snap.NextVertex, snap.NextEdge)
		err = restored.RestoreVertices(snap.Vertices)
		if err == nil {
			err = restored.RestoreEdges(es)
		}
		if err == nil {
			// A second load of the same edges changes nothing.
			err = restored.RestoreEdges(es)
		}
		if err == nil {
			err = checkScanOrder(restored, live)
		}
		if err == nil {
			err = checkIncidentOrder(g, restored)
		}
		if err != nil {
			return fail("RestoreEdges from a shuffled snapshot", err)
		}

		if err := replicatedWithGaps(seed); err != nil {
			return fail("ApplyReplicated with ID gaps", err)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// replicatedWithGaps applies a leader-shaped record stream whose edge IDs
// skip: each batch pads its fresh edges with re-delivered ones, which raises
// the batch's ID limit and lets the fresh IDs spread out; the allocator
// sometimes jumps ahead, as a snapshot header moves it past IDs a crashed
// batch reserved; and some edges are removed. It checks the scan order after
// every record.
func replicatedWithGaps(seed int64) error {
	g := New()
	w := newScanWorld(g, seed)
	live := map[EdgeID]bool{}
	var present []EdgeID // the live IDs, which re-delivered records repeat
	epoch := g.Epoch()
	for r := 3 + w.rng.Intn(20); r > 0; r-- {
		epoch++
		var m Mutation
		switch {
		case len(present) > 0 && w.rng.Intn(4) == 0:
			i := w.rng.Intn(len(present))
			id := present[i]
			present = slices.Delete(present, i, i+1)
			m = Mutation{Kind: MutRemoveEdge, Epoch: epoch, EdgeID: id}
			delete(live, id)
		default:
			if w.rng.Intn(4) == 0 {
				g.AdvanceIDs(0, int64(g.NextEdge())+w.rng.Int63n(3*chunkSize))
			}
			next := int64(g.NextEdge())
			var es []Edge
			for d := w.rng.Intn(min(len(present), 6) + 1); d > 0; d-- {
				e, _ := g.Edge(present[w.rng.Intn(len(present))])
				es = append(es, e)
			}
			fresh := 1 + w.rng.Intn(40)
			limit := next + int64(fresh+len(es))
			for id := next; id < limit && fresh > 0; id++ {
				if limit-id > int64(fresh) && w.rng.Intn(3) == 0 {
					continue // a gap
				}
				src, dst := w.edge()
				es = append(es, Edge{ID: EdgeID(id), Src: src, Dst: dst, Label: "l", Weight: 1})
				live[EdgeID(id)] = true
				present = append(present, EdgeID(id))
				fresh--
			}
			w.rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
			m = Mutation{Kind: MutAddEdges, Epoch: epoch, Edges: es}
		}
		if err := g.ApplyReplicated(m); err != nil {
			return err
		}
		if err := checkScanOrder(g, live); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkScanEdges is one whole-graph ID-ordered scan whose callback reads
// one field of each edge, as assembly's folds and the index rebuilds do. At
// 7,000 edges it is about the graph a restart_recover reopen scans.
func BenchmarkScanEdges(b *testing.B) {
	for _, edges := range []int{7_000, 100_000} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			g := syntheticGraph(b, edges)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kept := 0
				g.ScanEdges(func(e *EdgeScan) bool {
					if e.Timestamp%3 != 0 {
						kept++
					}
					return true
				})
				if kept == 0 {
					b.Fatal("the scan kept no edge")
				}
			}
		})
	}
}
