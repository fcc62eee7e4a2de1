package analytics

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nous/internal/core"
)

func testKG(t *testing.T) *core.KG {
	t.Helper()
	kg := core.NewKG(nil)
	facts := []core.Triple{
		{Subject: "DJI", Predicate: "acquired", Object: "Aeros Imaging", Confidence: 1, Curated: true},
		{Subject: "DJI", Predicate: "headquarteredIn", Object: "Shenzhen", Confidence: 1, Curated: true},
		{Subject: "Windermere Capital", Predicate: "invests", Object: "DJI", Confidence: 1, Curated: true},
		{Subject: "Aeros Imaging", Predicate: "headquarteredIn", Object: "Shenzhen", Confidence: 1, Curated: true},
	}
	for _, f := range facts {
		if _, err := kg.AddFact(f); err != nil {
			t.Fatal(err)
		}
	}
	return kg
}

func TestPageRankMemoizedAtUnchangedEpoch(t *testing.T) {
	kg := testKG(t)
	c := New(kg)
	first := c.PageRank()
	if first.Len() == 0 {
		t.Fatal("empty PageRank")
	}
	st0 := c.Stats()
	if st0.Computes != 1 || st0.Misses != 1 {
		t.Fatalf("after first read: %+v", st0)
	}
	for i := 0; i < 10; i++ {
		again := c.PageRank()
		// Same epoch must serve the identical snapshot, not a recomputation.
		if again != first {
			t.Fatalf("snapshot changed at unchanged epoch")
		}
	}
	st := c.Stats()
	if st.Computes != 1 {
		t.Fatalf("recomputed at unchanged epoch: %+v", st)
	}
	if st.Hits != 10 {
		t.Fatalf("hits = %d, want 10", st.Hits)
	}
}

func TestEpochBumpInvalidates(t *testing.T) {
	kg := testKG(t)
	c := New(kg)
	before := c.PageRank()
	id, _ := kg.Entity("Shenzhen")
	prBefore := before.At(id)

	// A write moves the epoch; the next read must recompute.
	kg.AddEntity("Orbit Dynamics", "Company")
	if _, err := kg.AddFact(core.Triple{
		Subject: "Orbit Dynamics", Predicate: "invests", Object: "DJI", Confidence: 1, Curated: true,
	}); err != nil {
		t.Fatal(err)
	}
	after := c.PageRank()
	st := c.Stats()
	if st.Computes != 2 {
		t.Fatalf("computes = %d, want 2 (one per epoch)", st.Computes)
	}
	if after.At(id) == prBefore && after.Len() == before.Len() {
		t.Log("rank numerically unchanged — acceptable, but recompute must have happened")
	}
}

// TestOnlyThePriorLags pins the one staleness budget left: a write makes
// PageRank recompute at once, while the popularity prior is served until
// more than priorLag mutations have passed.
func TestOnlyThePriorLags(t *testing.T) {
	kg := testKG(t)
	c := New(kg)
	prior, at := c.PopularityPrior(), c.Epoch()
	c.PageRank()
	base := c.Stats().Computes
	kg.AddEntity("Nimbus Labs", "Company")
	c.PageRank()
	if got := c.Stats().Computes; got != base+1 {
		t.Fatalf("computes = %d after a write, want %d (PageRank is epoch-exact)", got, base+1)
	}
	if again := c.PopularityPrior(); reflect.ValueOf(again).Pointer() != reflect.ValueOf(prior).Pointer() {
		t.Fatal("prior recomputed inside its staleness budget")
	}
	for i := 0; c.Epoch()-at <= priorLag; i++ {
		kg.AddEntity(fmt.Sprintf("Padding %d", i), "Company")
	}
	if again := c.PopularityPrior(); reflect.ValueOf(again).Pointer() == reflect.ValueOf(prior).Pointer() {
		t.Fatal("prior served past its staleness budget")
	}
}

func TestPopularityPriorNormalized(t *testing.T) {
	kg := testKG(t)
	c := New(kg)
	prior := c.PopularityPrior()
	if len(prior) == 0 {
		t.Fatal("empty prior")
	}
	maxP := 0.0
	for name, p := range prior {
		if p < 0 || p > 1 {
			t.Fatalf("prior[%s] = %v out of [0,1]", name, p)
		}
		if p > maxP {
			maxP = p
		}
	}
	if maxP != 1 {
		t.Fatalf("max prior = %v, want 1 (normalized)", maxP)
	}
	// DJI has the most in-links; it should be the most popular.
	best, bestP := "", -1.0
	for name, p := range prior {
		if p > bestP {
			best, bestP = name, p
		}
	}
	if best != "DJI" && best != "Shenzhen" {
		t.Fatalf("most popular = %q (%v), want a hub entity", best, bestP)
	}
}

// TestSingleflightDedup: concurrent first reads of topic vectors share one
// fit of the topic model.
func TestSingleflightDedup(t *testing.T) {
	kg := testKG(t)
	c := New(kg)
	topicOf := c.Topics()
	names := kg.Entities()
	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		id, _ := kg.Entity(names[i%len(names)])
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := topicOf(id); v == nil {
				t.Errorf("no topic vector for vertex %d", id)
			}
		}()
	}
	wg.Wait()
	if got := c.Stats().Computes; got != 1 {
		t.Fatalf("topic model fits = %d, want 1 (singleflight)", got)
	}
}

func TestConcurrentPageRankOneCompute(t *testing.T) {
	kg := testKG(t)
	c := New(kg)
	const goroutines = 16
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.PageRank().Len() == 0 {
				t.Error("empty PageRank")
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Computes != 1 {
		t.Fatalf("computes = %d, want 1 under concurrency", st.Computes)
	}
}
