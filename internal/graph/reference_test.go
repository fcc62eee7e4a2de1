package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refPageRank is the map-based PageRank the compiled-view kernel replaced,
// kept as the differential reference: every pass rescans the edge slabs,
// re-evaluates keep per visit, accumulates into one map per stripe and merges
// the stripes in index order. Its numerics are the replaced implementation's
// (same per-stripe partial sums, same merge order), so a rank it returns is
// bit for bit what the parent commit served.
func refPageRank(g *Graph, damping float64, iters int, keep func(*EdgeScan) bool) map[VertexID]float64 {
	// stripes is the count of the replaced implementation's stripes: edge ID
	// % stripes picked the map an edge's contribution summed into.
	const stripes = 16
	n := g.NumVertices()
	if n == 0 {
		return map[VertexID]float64{}
	}
	base := (1 - damping) / float64(n)
	ids := vertexIDs(g)
	outdeg := make(map[VertexID]float64)
	g.ScanEdges(func(e *EdgeScan) bool {
		if keep == nil || keep(e) {
			outdeg[e.Src]++
		}
		return true
	})
	ranks := make(map[VertexID]float64, n)
	for _, id := range ids {
		ranks[id] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		contrib := make(map[VertexID]float64, n)
		for si := 0; si < stripes; si++ {
			local := make(map[VertexID]float64)
			g.ScanEdges(func(e *EdgeScan) bool {
				if int(e.ID%stripes) == si && (keep == nil || keep(e)) {
					local[e.Dst] += ranks[e.Src] / outdeg[e.Src]
				}
				return true
			})
			for k, v := range local {
				contrib[k] += v
			}
		}
		var dangling float64
		for _, id := range ids {
			if outdeg[id] == 0 {
				dangling += ranks[id]
			}
		}
		next := make(map[VertexID]float64, n)
		for _, id := range ids {
			next[id] = base + damping*contrib[id] + damping*dangling/float64(n)
		}
		ranks = next
	}
	return ranks
}

// randomMultigraph builds a graph with self-loops, parallel edges, vertices
// without out-edges and vertices without any edge, some edges removed again
// (tombstoned slab slots), and a "timeless" prop on a random subset.
func randomMultigraph(rng *rand.Rand) *Graph {
	g := New()
	n := 1 + rng.Intn(60)
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = g.AddVertex("V", "")
	}
	// Sources come from a prefix and destinations from a suffix of varying
	// size, so some vertices dangle and some stay isolated.
	srcs, dsts := ids[:1+rng.Intn(n)], ids[rng.Intn(n):]
	var added []EdgeID
	for i, m := 0, rng.Intn(5*n); i < m; i++ {
		row := FactRow{Curated: rng.Intn(4) == 0}
		s, d := srcs[rng.Intn(len(srcs))], dsts[rng.Intn(len(dsts))]
		if rng.Intn(10) == 0 {
			d = s
		}
		id, err := addEdge(g, s, d, "r", 1, int64(rng.Intn(100)), row)
		if err != nil {
			panic(err)
		}
		added = append(added, id)
		if rng.Intn(5) == 0 { // a parallel edge
			if id, err = addEdge(g, s, d, "r", 1, int64(rng.Intn(100)), FactRow{}); err != nil {
				panic(err)
			}
			added = append(added, id)
		}
	}
	for _, id := range added {
		if rng.Intn(8) == 0 {
			g.RemoveEdge(id)
		}
	}
	return g
}

// TestViewPageRankMatchesReference pins the kernel to the loop it replaced
// on random multigraphs, random windows and 1–30 iterations: every rank
// within 1e-12 relative (the two sum in different orders), ranks summing
// to 1.
func TestViewPageRankMatchesReference(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomMultigraph(rng)
		iters := 1 + rng.Intn(30)
		since, until := int64(rng.Intn(100)), int64(rng.Intn(120))
		keepStamp := func(ts int64, timeless bool) bool { return timeless || (ts >= since && ts < until) }
		keepScan := func(e *EdgeScan) bool { return keepStamp(e.Timestamp, e.Curated()) }
		if rng.Intn(4) == 0 {
			keepStamp, keepScan = nil, nil
		}
		want := refPageRank(g, 0.85, iters, keepScan)
		got := Compile(g, (*EdgeScan).Curated).PageRank(0.85, iters, keepStamp)
		if got.Len() != len(want) {
			t.Errorf("seed %d: %d ranks, reference has %d", seed, got.Len(), len(want))
			return false
		}
		ok, sum := true, 0.0
		got.Each(func(id VertexID, r float64) {
			sum += r
			if w := want[id]; math.Abs(r-w) > 1e-12*math.Abs(w) {
				t.Errorf("seed %d, %d iterations: rank of vertex %d = %v, reference %v", seed, iters, id, r, w)
				ok = false
			}
		})
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("seed %d: ranks sum to %v", seed, sum)
			ok = false
		}
		return ok
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
