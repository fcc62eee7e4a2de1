package analytics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"nous/internal/core"
	"nous/internal/graph"
	"nous/internal/pathsearch"
)

// Two vocabularies, so profile documents fall into two topics.
var (
	droneWords   = []string{"drone", "flight", "camera", "aerial", "rotor", "gimbal", "airspace", "pilot"}
	financeWords = []string{"fund", "stock", "capital", "equity", "dividend", "portfolio", "bond", "yield"}
	topicPreds   = []string{"acquired", "competesWith", "suppliesTo"}
)

// sentence draws a short supporting sentence from one vocabulary.
func sentence(rng *rand.Rand, words []string) string {
	s := "The"
	for i := 0; i < 4; i++ {
		s += " " + words[rng.Intn(len(words))]
	}
	return s + "."
}

// topicTriple is a random company-to-company fact among n companies, with a
// sentence from the subject's vocabulary (even companies fly drones, odd ones
// trade stock).
func topicTriple(rng *rand.Rand, n int, curated bool, day int) core.Triple {
	s, o := rng.Intn(n), rng.Intn(n)
	if o == s {
		o = (s + 1) % n
	}
	words := droneWords
	if s%2 == 1 {
		words = financeWords
	}
	t := core.Triple{
		Subject: fmt.Sprintf("Company %d", s), Predicate: topicPreds[rng.Intn(len(topicPreds))],
		Object: fmt.Sprintf("Company %d", o), Confidence: 0.5 + rng.Float64()/2, Curated: curated,
		Provenance: core.Provenance{Sentence: sentence(rng, words)},
	}
	if !curated {
		t.Provenance.Source = "newswire"
		t.Provenance.Time = time.Date(2015, 1, 1+day, 0, 0, 0, 0, time.UTC)
	}
	return t
}

// topicKG is a KG whose first 12 companies carry 30 curated facts.
func topicKG(t testing.TB, seed int64) *core.KG {
	t.Helper()
	kg := core.NewKG(nil)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 30; i++ {
		if _, err := kg.AddFact(topicTriple(rng, 12, true, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return kg
}

// cachedVectors is every entity's topic vector read through c.
func cachedVectors(kg *core.KG, c *Cache) map[string][]float64 {
	topicOf := c.Topics()
	out := map[string][]float64{}
	for _, name := range kg.Entities() {
		id, _ := kg.Entity(name)
		out[name] = topicOf(id)
	}
	return out
}

// freshVectors is every entity's topic vector as a cache that never served a
// read computes it: a fresh fit and a fresh fold-in at the current epoch.
func freshVectors(kg *core.KG) map[string][]float64 { return cachedVectors(kg, New(kg)) }

// TestTopicModelRefitsOnlyOnCuratedChange: extracted writes never refit the
// model, a curated write does, and every vector read after either equals a
// fresh fold-in.
func TestTopicModelRefitsOnlyOnCuratedChange(t *testing.T) {
	kg := topicKG(t, 1)
	c := New(kg)
	rng := rand.New(rand.NewSource(2))
	cachedVectors(kg, c)
	if got := c.Stats().Computes; got != 1 {
		t.Fatalf("fits after the first reads = %d, want 1", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := kg.AddFact(topicTriple(rng, 12, false, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := cachedVectors(kg, c), freshVectors(kg); !reflect.DeepEqual(got, want) {
		t.Fatalf("vectors after extracted writes differ from a fresh fold-in:\n got %v\nwant %v", got, want)
	}
	if got := c.Stats().Computes; got != 1 {
		t.Fatalf("fits after extracted writes = %d, want 1", got)
	}
	if _, err := kg.AddFact(topicTriple(rng, 12, true, 0)); err != nil {
		t.Fatal(err)
	}
	if got, want := cachedVectors(kg, c), freshVectors(kg); !reflect.DeepEqual(got, want) {
		t.Fatalf("vectors after a curated write differ from a fresh fit:\n got %v\nwant %v", got, want)
	}
	if got := c.Stats().Computes; got != 2 {
		t.Fatalf("fits after a curated write = %d, want 2", got)
	}
}

// TestLateEntityGetsAVector: an entity that first appears after the first
// read gets a folded-in vector, not the missing vector that scores a
// divergence of 0, the best.
func TestLateEntityGetsAVector(t *testing.T) {
	kg := topicKG(t, 3)
	c := New(kg)
	cachedVectors(kg, c)
	id, err := kg.AddFact(core.Triple{Subject: "Company 0", Predicate: "acquired", Object: "Late Aero",
		Confidence: 0.9, Provenance: core.Provenance{Source: "newswire", Sentence: "The drone rotor camera pilot.",
			Time: time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)}})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := kg.Fact(id)
	got := c.Topics()(f.Dst)
	if got == nil {
		t.Fatal("the late entity has no topic vector")
	}
	if want := freshVectors(kg)["Late Aero"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("late entity vector = %v, want the fresh fold-in %v", got, want)
	}
}

// topicOp is one random mutation of TestTopicVectorsConcurrentWithMutations.
type topicOp struct {
	Kind uint8 // 0-2: extracted add, 3: curated add, 4: remove a fact
	Seed int64
}

// TestTopicVectorsConcurrentWithMutations: relationship searches read topic
// vectors beside a writer that adds and removes extracted and curated facts,
// some of them about companies no curated fact names. After every mutation,
// with the readers still running, every entity's vector read through the
// shared cache equals a fresh fit and fold-in at that epoch: no fold-in that
// raced a write was kept.
func TestTopicVectorsConcurrentWithMutations(t *testing.T) {
	check := func(ops []topicOp) bool {
		if len(ops) > 6 {
			ops = ops[:6]
		}
		kg := topicKG(t, 5)
		c := New(kg)
		searcher := pathsearch.New(kg.Graph(), c.Topics())
		var stop atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					names := kg.Entities()
					src, _ := kg.Entity(names[rng.Intn(len(names))])
					dst, _ := kg.Entity(names[rng.Intn(len(names))])
					searcher.TopK(src, dst, pathsearch.Options{K: 2, MaxDepth: 3, Beam: 4})
				}
			}(int64(r))
		}
		defer func() {
			stop.Store(true)
			wg.Wait()
		}()

		for i, op := range ops {
			rng := rand.New(rand.NewSource(op.Seed))
			switch {
			case op.Kind%5 == 4:
				all := kg.AllFacts()
				m := graph.Mutation{Kind: graph.MutRemoveEdge, EdgeID: all[rng.Intn(len(all))].ID,
					Epoch: kg.Graph().Epoch() + 1}
				if err := kg.ApplyReplicated(m); err != nil {
					t.Error(err)
					return false
				}
			default:
				// 14 companies: two of them never named by a curated fact.
				if _, err := kg.AddFact(topicTriple(rng, 14, op.Kind%5 == 3, i)); err != nil {
					t.Error(err)
					return false
				}
			}
			if got, want := cachedVectors(kg, c), freshVectors(kg); !reflect.DeepEqual(got, want) {
				t.Errorf("after op %d (%+v) the cached vectors differ from a fresh fold-in:\n got %v\nwant %v", i, op, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
