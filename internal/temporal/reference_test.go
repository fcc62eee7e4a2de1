package temporal

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nous/internal/graph"
)

// The reference the index is pinned to: the graph's live (ts, id) pairs,
// sorted by brute force at every check.

// choices turns a byte string into a stream of bounded decisions. An
// exhausted string reads as zeros.
type choices struct{ b []byte }

func (c *choices) next(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// refEntry is one live edge as the reference sees it.
type refEntry struct {
	ts int64
	id graph.EdgeID
}

// referenceEntries lists g's live edges in (ts, id) order.
func referenceEntries(g *graph.Graph) []refEntry {
	var all []refEntry
	g.ScanEdges(func(e *graph.EdgeScan) bool {
		all = append(all, refEntry{ts: e.Timestamp, id: e.ID})
		return true
	})
	slices.SortFunc(all, func(a, b refEntry) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return all
}

func refIDs(es []refEntry, keep func(refEntry) bool) []graph.EdgeID {
	ids := []graph.EdgeID{}
	for _, e := range es {
		if keep(e) {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// checkAgainstReference compares every read of ix over window w with the
// brute-force answer from g's live edges.
func checkAgainstReference(ix *Index, g *graph.Graph, w Window, k int) error {
	all := referenceEntries(g)
	in := refIDs(all, func(e refEntry) bool { return w.Contains(e.ts) })
	dated := refIDs(all, func(e refEntry) bool { return w.Contains(e.ts) && e.ts > Timeless })
	latest := dated[max(0, len(dated)-k):]
	if got := ix.EdgesIn(w); !slices.Equal(got, in) {
		return fmt.Errorf("EdgesIn(%+v) = %v, want %v", w, got, in)
	}
	if got := ix.DatedIn(w); !slices.Equal(got, dated) {
		return fmt.Errorf("DatedIn(%+v) = %v, want %v", w, got, dated)
	}
	if got := ix.LatestIn(w, k); !slices.Equal(got, latest) {
		return fmt.Errorf("LatestIn(%+v, %d) = %v, want %v", w, k, got, latest)
	}
	var wantMin, wantMax int64
	wantOK := false
	for _, e := range all {
		if e.ts > Timeless {
			if !wantOK {
				wantMin, wantOK = e.ts, true
			}
			wantMax = e.ts
		}
	}
	if min, max, ok := ix.Span(); min != wantMin || max != wantMax || ok != wantOK {
		return fmt.Errorf("Span = (%d, %d, %v), want (%d, %d, %v)", min, max, ok, wantMin, wantMax, wantOK)
	}
	if got := ix.Len(); got != len(all) {
		return fmt.Errorf("Len = %d, want %d", got, len(all))
	}
	return nil
}

// drawWindow draws a window over the schedule's small timestamp range:
// unbounded, one-sided, bounded or inverted.
func drawWindow(c *choices) Window {
	ts := func() int64 { return int64(c.next(48)) - 4 }
	switch c.next(5) {
	case 0:
		return All()
	case 1:
		return Window{Since: math.MinInt64, Until: ts()}
	case 2:
		return Window{Since: ts(), Until: math.MaxInt64}
	default:
		return Window{Since: ts(), Until: ts()}
	}
}

// indexMatchesReference runs one schedule drawn from data against an
// attached index. A step is a burst of up to four operations — a batch of
// adds (timeless, in order, reverse-chronological or scattered
// timestamps), a removal, the eviction of a whole dated prefix, a Rebuild,
// a rescan or a bare read — so tails, dead entries and duplicates pile up
// between settles; after each step every read must equal the reference. A
// scan over the filled index stands in for the attach-time race in which
// the scan and the hook both index one edge.
func indexMatchesReference(data []byte) error {
	c := &choices{b: data}
	g := graph.New()
	var vs [4]graph.VertexID
	for i := range vs {
		vs[i] = g.AddVertex("Company", "")
	}
	ix := Attach(g)
	defer ix.Detach()
	var live []graph.EdgeID
	lo, hi := int64(20), int64(20) // the span the ordered modes extend
	for step := 0; step < 24 && len(c.b) > 0; step++ {
		for op := c.next(4); op >= 0; op-- {
			switch c.next(9) {
			case 0, 1, 2: // a batch of adds
				mode := c.next(4)
				specs := make([]graph.EdgeSpec, 1+c.next(6))
				for i := range specs {
					var ts int64
					switch mode {
					case 0:
						ts = Timeless
					case 1:
						hi += int64(c.next(3))
						ts = hi
					case 2:
						lo -= int64(c.next(3))
						ts = lo
					default:
						ts = int64(c.next(40))
					}
					specs[i] = graph.EdgeSpec{Src: vs[c.next(4)], Dst: vs[c.next(4)], Label: "acquired", Weight: 1, Timestamp: ts}
				}
				ids, err := g.AddEdges(specs)
				if err != nil {
					return err
				}
				live = append(live, ids...)
			case 3, 4: // a removal
				if len(live) > 0 {
					i := c.next(len(live))
					g.RemoveEdge(live[i])
					live = slices.Delete(live, i, i+1)
				}
			case 5: // the eviction of a dated prefix
				for _, id := range ix.DatedIn(Window{Since: math.MinInt64, Until: int64(c.next(48)) - 4}) {
					g.RemoveEdge(id)
					live = slices.DeleteFunc(live, func(l graph.EdgeID) bool { return l == id })
				}
			case 6:
				ix.Rebuild()
			case 7: // every edge indexed a second time
				ix.scan()
			default: // a bare read, which settles mid-burst
				ix.EdgesIn(drawWindow(c))
			}
		}
		for _, w := range []Window{All(), drawWindow(c)} {
			if err := checkAgainstReference(ix, g, w, 1+c.next(5)); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
	}
	return nil
}

// FuzzIndexMatchesReference pins the one-run index to the brute-force
// reference over fuzzed schedules of adds, removals, evictions, rebuilds
// and reads.
func FuzzIndexMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15"))
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		b := make([]byte, 600)
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := indexMatchesReference(data); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkIndexEvictPrefix times the removal path: a window evicts the
// oldest 10 % of 100,000 indexed edges, found through DatedIn and removed
// one by one through RemoveEdge, and one read follows. No workload of the
// system benchmark evicts, so this is where the removal path is measured.
// The edges spread over 1,000 vertices so the graph's own adjacency removal
// stays small beside the index's.
func BenchmarkIndexEvictPrefix(b *testing.B) {
	const n, nv = 100_000, 1_000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := graph.New()
		for v := 0; v < nv; v++ {
			g.AddVertex("Company", "")
		}
		specs := make([]graph.EdgeSpec, n)
		for j := range specs {
			specs[j] = graph.EdgeSpec{Src: graph.VertexID(j % nv), Dst: graph.VertexID(j * 7 % nv),
				Label: "acquired", Weight: 1, Timestamp: int64(j)}
		}
		if _, err := g.AddEdges(specs); err != nil {
			b.Fatal(err)
		}
		ix := Attach(g)
		b.StartTimer()
		for _, id := range ix.DatedIn(Window{Since: math.MinInt64, Until: n / 10}) {
			g.RemoveEdge(id)
		}
		if got := ix.Len(); got != n-n/10 {
			b.Fatalf("Len = %d after eviction, want %d", got, n-n/10)
		}
		b.StopTimer()
		ix.Detach()
		b.StartTimer()
	}
}
