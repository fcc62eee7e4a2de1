package analytics

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/graph"
	"nous/internal/persist"
	"nous/internal/temporal"
)

var day0 = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

// randomTriple draws a curated or dated-extracted fact over a small entity
// pool, so the graph has parallel edges, hubs and sinks.
func randomTriple(rng *rand.Rand) core.Triple {
	t := core.Triple{
		Subject:    fmt.Sprintf("Entity %d", rng.Intn(40)),
		Predicate:  []string{"acquired", "invests", "partnersWith"}[rng.Intn(3)],
		Object:     fmt.Sprintf("Entity %d", rng.Intn(15)),
		Confidence: 0.5 + rng.Float64()/2,
	}
	if rng.Intn(3) == 0 {
		t.Curated = true
	} else {
		t.Provenance = core.Provenance{Source: "wire", Time: day0.AddDate(0, 0, rng.Intn(120))}
	}
	return t
}

func sameBits(t *testing.T, what string, got, want *graph.Ranks) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d ranks, want %d", what, got.Len(), want.Len())
	}
	want.Each(func(id graph.VertexID, r float64) {
		if g := got.At(id); math.Float64bits(g) != math.Float64bits(r) {
			t.Fatalf("%s: rank of vertex %d = %x, want %x", what, id, math.Float64bits(g), math.Float64bits(r))
		}
	})
}

// TestImportanceBitIdenticalAcrossCopies pins what the canonical view order
// buys: a leader, a replica fed its mutation stream and a KG reopened from
// the leader's snapshot + WAL hold the same edges in different slab slots,
// and serve bitwise-equal windowed and unwindowed importance.
func TestImportanceBitIdenticalAcrossCopies(t *testing.T) {
	opt := persist.Options{DisableAutoCheckpoint: true, FlushInterval: time.Hour}
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	leader := core.NewKG(nil)
	st, err := persist.Open(dir, leader.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var muts []graph.Mutation
	leader.Graph().AddMutationHook(func(m graph.Mutation) {
		m.Edges = append([]graph.Edge(nil), m.Edges...)
		muts = append(muts, m)
	})
	// Half the facts land under the snapshot, half in the WAL tail; removals
	// on both sides leave tombstones the replica and the reopened copy never
	// had slots for.
	for half := 0; half < 2; half++ {
		var ids []core.FactID
		for i := 0; i < 300; i++ {
			id, err := leader.AddFact(randomTriple(rng))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if rng.Intn(6) == 0 {
				leader.Graph().RemoveEdge(id)
			}
		}
		if half == 0 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	follower := core.NewKG(nil)
	for _, m := range muts {
		if err := follower.ApplyReplicated(m); err != nil {
			t.Fatalf("ApplyReplicated(%v): %v", m.Kind, err)
		}
	}
	reopened := core.NewKG(nil)
	st2, err := persist.Open(dir, reopened.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := reopened.Rebuild(); err != nil {
		t.Fatal(err)
	}

	windows := []temporal.Window{
		temporal.All(),
		temporal.Between(day0.AddDate(0, 0, 10), day0.AddDate(0, 0, 40)),
		temporal.SinceTime(day0.AddDate(0, 0, 90)),
		temporal.Between(day0.AddDate(-1, 0, 0), day0.AddDate(1, 0, 0)), // covers every dated edge
	}
	lc := New(leader)
	for name, kg := range map[string]*core.KG{"follower": follower, "reopened": reopened} {
		c := New(kg)
		for _, w := range windows {
			sameBits(t, fmt.Sprintf("%s, window %v", name, w), c.WindowedPageRank(w), lc.WindowedPageRank(w))
		}
	}
	// An all-covering bounded window keeps every edge: it is the unwindowed
	// kernel run over the same columns.
	sameBits(t, "all-covering window vs unwindowed", lc.WindowedPageRank(windows[3]), lc.PageRank())
}

// TestViewImmutableUnderWrites runs windowed readers against a concurrent
// writer (under -race): a compiled view never changes, a read at a new epoch
// recompiles, and the compute counters count kernel runs exactly as they did
// before views existed.
func TestViewImmutableUnderWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	kg := core.NewKG(nil)
	add := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := kg.AddFact(randomTriple(rng)); err != nil {
				t.Error(err)
				return
			}
		}
	}
	add(200)
	c := New(kg)
	w := temporal.Between(day0.AddDate(0, 0, 10), day0.AddDate(0, 0, 60))

	held := c.compiled()
	before := held.PageRank(c.Damping, c.Iters, w.ContainsStamp)
	first := c.WindowedPageRank(w)
	sameBits(t, "cache vs its own view", first, before)
	if c.compiled() != held {
		t.Fatal("view recompiled at an unchanged epoch")
	}

	var writer, readers sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() {
		defer writer.Done()
		add(400)
	}()
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c.WindowedPageRank(w).Len() == 0 || c.PageRank().Len() == 0 || len(c.PopularityPrior()) == 0 {
					t.Error("empty importance artifact during writes")
					return
				}
			}
		}()
	}
	writer.Wait()
	close(stop)
	readers.Wait()

	sameBits(t, "held view after 400 writes", held.PageRank(c.Damping, c.Iters, w.ContainsStamp), before)
	if fresh := c.compiled(); fresh == held || fresh.NumEdges() <= held.NumEdges() {
		t.Fatalf("view at the new epoch has %d edges, the held one %d", fresh.NumEdges(), held.NumEdges())
	}

	// Quiescent accounting: one kernel run per artifact at a new epoch, none
	// at an unchanged one, the shared view not counted.
	c.WindowedPageRank(w)
	c.PageRank()
	st0 := c.Stats()
	c.WindowedPageRank(w)
	c.PageRank()
	if st := c.Stats(); st.Computes != st0.Computes || st.WindowedComputes != st0.WindowedComputes || st.Hits != st0.Hits+2 {
		t.Fatalf("repeat at an unchanged epoch: %+v, before %+v", st, st0)
	}
	add(1)
	c.WindowedPageRank(w)
	c.PageRank()
	c.WindowedPageRank(temporal.SinceTime(day0))
	if st := c.Stats(); st.Computes != st0.Computes+3 || st.WindowedComputes != st0.WindowedComputes+2 || st.Misses != st0.Misses+3 {
		t.Fatalf("after one write: %+v, before %+v", st, st0)
	}
}

// TestViewLabelIsExactEpoch runs view readers against a concurrent writer
// (under -race): every view the cache hands out holds exactly the edges the
// mutation hook emitted up to the epoch it is labelled with — none later,
// none missing. Each view is checked against the view of a replica fed the
// hook's mutations up to that epoch.
func TestViewLabelIsExactEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kg := core.NewKG(nil)
	var mu sync.Mutex
	var muts []graph.Mutation
	kg.Graph().AddMutationHook(func(m graph.Mutation) {
		m.Edges = append([]graph.Edge(nil), m.Edges...)
		mu.Lock()
		muts = append(muts, m)
		mu.Unlock()
	})
	c := New(kg)

	// Each reader records one view before the writer starts and keeps
	// reading until it has seen the final epoch, so every reader's views
	// span the whole write phase.
	var ready, readers sync.WaitGroup
	var done atomic.Bool
	seen := make([][]epochView, 4)
	for i := range seen {
		ready.Add(1)
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			for {
				v := c.compiled()
				if len(seen[i]) == 0 {
					ready.Done()
				}
				if len(seen[i]) == 0 || seen[i][len(seen[i])-1] != v {
					seen[i] = append(seen[i], v)
				}
				if done.Load() && v.epoch == c.Epoch() {
					return
				}
			}
		}(i)
	}
	ready.Wait()
	for i := 0; i < 300; i++ {
		if _, err := kg.AddFact(randomTriple(rng)); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	readers.Wait()

	var views []epochView
	for _, vs := range seen {
		views = append(views, vs...)
	}
	slices.SortFunc(views, func(a, b epochView) int { return cmp.Compare(a.epoch, b.epoch) })
	slices.SortFunc(muts, func(a, b graph.Mutation) int { return cmp.Compare(a.Epoch, b.Epoch) })
	replica := core.NewKG(nil)
	next := 0
	for _, v := range views {
		for ; next < len(muts) && muts[next].Epoch <= v.epoch; next++ {
			if err := replica.ApplyReplicated(muts[next]); err != nil {
				t.Fatal(err)
			}
		}
		want, _ := replica.CompileView()
		if !reflect.DeepEqual(v.View, want) {
			t.Fatalf("view labelled epoch %d differs from the replica's view at that epoch (%d vs %d edges)", v.epoch, v.NumEdges(), want.NumEdges())
		}
	}
}
