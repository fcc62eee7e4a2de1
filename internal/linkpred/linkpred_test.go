package linkpred

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"nous/internal/core"
)

// blockWorld builds a structured bipartite world for the "acquired"
// predicate: subjects in block A acquire objects in block A', subjects in B
// acquire objects in B'. The block structure is exactly what a latent-factor
// model can learn and a frequency baseline cannot.
func blockWorld(nPerBlock int, seed int64) (train []core.Triple, test [][2]string, isPos func(s, o string) bool) {
	rng := rand.New(rand.NewSource(seed))
	pos := map[[2]string]bool{}
	var all [][2]string
	for block := 0; block < 2; block++ {
		for i := 0; i < nPerBlock; i++ {
			s := fmt.Sprintf("S%d-%d", block, i)
			for j := 0; j < nPerBlock; j++ {
				if rng.Float64() < 0.6 {
					o := fmt.Sprintf("O%d-%d", block, j)
					pos[[2]string{s, o}] = true
					all = append(all, [2]string{s, o})
				}
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	cut := len(all) * 4 / 5
	for _, p := range all[:cut] {
		train = append(train, core.Triple{Subject: p[0], Predicate: "acquired", Object: p[1], Confidence: 1})
	}
	test = all[cut:]
	return train, test, func(s, o string) bool { return pos[[2]string{s, o}] }
}

func TestScoreInUnitInterval(t *testing.T) {
	train, _, _ := blockWorld(6, 1)
	m := Train(train, DefaultConfig())
	for _, tr := range train {
		s := m.Score(tr.Subject, tr.Predicate, tr.Object)
		if s <= 0 || s >= 1 {
			t.Fatalf("score out of (0,1): %v", s)
		}
	}
}

func TestScoreQuickProperty(t *testing.T) {
	train, _, _ := blockWorld(5, 2)
	m := Train(train, DefaultConfig())
	subjects := []string{"S0-0", "S1-1", "nope", "S0-3"}
	objects := []string{"O0-0", "O1-2", "missing", "O1-4"}
	f := func(i, j uint8) bool {
		s := m.Score(subjects[int(i)%len(subjects)], "acquired", objects[int(j)%len(objects)])
		return s > 0 && s < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingBeatsUntrained(t *testing.T) {
	train, test, isPos := blockWorld(8, 3)
	cfg := DefaultConfig()
	trained := Train(train, cfg)

	cfg0 := cfg
	cfg0.Epochs = 0
	untrained := Train(train, cfg0)

	pool := objectPool(train)
	aucT := EvalAUC(trained, "acquired", test, pool, isPos, 20, 99)
	aucU := EvalAUC(untrained, "acquired", test, pool, isPos, 20, 99)
	if aucT < 0.75 {
		t.Fatalf("trained AUC = %.3f, want >= 0.75", aucT)
	}
	if aucT <= aucU+0.05 {
		t.Fatalf("training did not help: trained %.3f vs untrained %.3f", aucT, aucU)
	}
}

func TestBPRBeatsFrequencyBaseline(t *testing.T) {
	train, test, isPos := blockWorld(8, 4)
	m := Train(train, DefaultConfig())
	freq := NewFrequencyBaseline(train)
	pool := objectPool(train)
	aucBPR := EvalAUC(m, "acquired", test, pool, isPos, 20, 7)
	aucFreq := EvalAUC(freq, "acquired", test, pool, isPos, 20, 7)
	if aucBPR <= aucFreq {
		t.Fatalf("BPR %.3f <= frequency baseline %.3f", aucBPR, aucFreq)
	}
}

// objectPool lists the distinct objects of train in first-seen order: the
// corruptions EvalAUC draws negatives from.
func objectPool(train []core.Triple) []string {
	var pool []string
	seen := map[string]bool{}
	for _, tr := range train {
		if !seen[tr.Object] {
			seen[tr.Object] = true
			pool = append(pool, tr.Object)
		}
	}
	return pool
}

func TestUnknownFallsBackToNeutral(t *testing.T) {
	train, _, _ := blockWorld(4, 5)
	m := Train(train, DefaultConfig())
	if got := m.Score("S0-0", "nosuchpred", "O0-0"); got != 0.5 {
		t.Errorf("unknown predicate score = %v", got)
	}
	if got := m.Score("martian", "acquired", "O0-0"); got != 0.5 {
		t.Errorf("unknown subject score = %v", got)
	}
}

func TestOnlineUpdateRaisesScore(t *testing.T) {
	train, _, _ := blockWorld(6, 6)
	m := Train(train, DefaultConfig())
	tr := core.Triple{Subject: "NewCo", Predicate: "acquired", Object: "O0-1", Confidence: 1}
	before := m.Score("NewCo", "acquired", "O0-1")
	if before != 0.5 {
		t.Fatalf("unseen subject should be neutral, got %v", before)
	}
	for i := 0; i < 50; i++ {
		m.Update(tr, 4)
	}
	after := m.Score("NewCo", "acquired", "O0-1")
	if after <= 0.55 {
		t.Fatalf("online update did not raise score: %v -> %v", before, after)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	train, _, _ := blockWorld(5, 7)
	a := Train(train, DefaultConfig())
	b := Train(train, DefaultConfig())
	for _, tr := range train[:10] {
		sa := a.Score(tr.Subject, tr.Predicate, tr.Object)
		sb := b.Score(tr.Subject, tr.Predicate, tr.Object)
		if sa != sb {
			t.Fatalf("same seed, different scores: %v vs %v", sa, sb)
		}
	}
}

func TestPredicatesListing(t *testing.T) {
	train := []core.Triple{
		{Subject: "a", Predicate: "p1", Object: "b"},
		{Subject: "a", Predicate: "p0", Object: "b"},
	}
	m := Train(train, DefaultConfig())
	ps := m.Predicates()
	if len(ps) != 2 || ps[0] != "p0" || ps[1] != "p1" {
		t.Fatalf("Predicates = %v", ps)
	}
}

func TestFrequencyBaselineScores(t *testing.T) {
	train := []core.Triple{
		{Subject: "a", Predicate: "p", Object: "x"},
		{Subject: "b", Predicate: "p", Object: "x"},
		{Subject: "c", Predicate: "p", Object: "y"},
	}
	fb := NewFrequencyBaseline(train)
	if got := fb.Score("z", "p", "x"); got != 1.0 {
		t.Errorf("popular object score = %v", got)
	}
	if got := fb.Score("z", "p", "y"); got != 0.5 {
		t.Errorf("less popular object score = %v", got)
	}
	if got := fb.Score("z", "p", "unseen"); got != 0 {
		t.Errorf("unseen object score = %v", got)
	}
	if got := fb.Score("z", "nopred", "x"); got != 0.5 {
		t.Errorf("unknown predicate score = %v", got)
	}
}

func TestCommonNeighborBaseline(t *testing.T) {
	kg := core.NewKG(nil)
	kg.AddFact(core.Triple{Subject: "A Co", Predicate: "partnersWith", Object: "Hub Co", Confidence: 1, Curated: true})
	kg.AddFact(core.Triple{Subject: "B Co", Predicate: "partnersWith", Object: "Hub Co", Confidence: 1, Curated: true})
	kg.AddFact(core.Triple{Subject: "C Co", Predicate: "partnersWith", Object: "Other Co", Confidence: 1, Curated: true})
	cn := NewCommonNeighborBaseline(kg)
	near := cn.Score("A Co", "acquired", "B Co")  // share Hub Co
	far := cn.Score("A Co", "acquired", "C Co")   // no overlap
	none := cn.Score("A Co", "acquired", "Ghost") // unknown entity
	if near <= far {
		t.Errorf("common-neighbor: near %v <= far %v", near, far)
	}
	if none != 0 {
		t.Errorf("unknown entity score = %v", none)
	}
}

// TestUpdateConcurrentWithScore runs Updates that add rows, and so grow and
// reallocate the flat factor arrays, beside Score, EvalAUC and String readers.
// Readers draw from their own generators, so the model must end bit-equal
// to one given the same Updates with no reader running.
func TestUpdateConcurrentWithScore(t *testing.T) {
	train, test, isPos := blockWorld(6, 10)
	pool := objectPool(train)
	const updates = 300
	update := func(i int) core.Triple {
		return core.Triple{Subject: fmt.Sprintf("NewS%d", i), Predicate: "acquired", Object: fmt.Sprintf("NewO%d", i/2), Confidence: 1}
	}
	m, serial := Train(train, DefaultConfig()), Train(train, DefaultConfig())
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				u := update(i % updates)
				if s := m.Score(u.Subject, u.Predicate, u.Object); s <= 0 || s >= 1 {
					t.Errorf("Score(%v) = %v, want in (0,1)", u, s)
					return
				}
				EvalAUC(m, "acquired", test, pool, isPos, 2, int64(i))
				_ = m.String()
			}
		}()
	}
	for i := 0; i < updates; i++ {
		m.Update(update(i), 2)
	}
	close(done)
	wg.Wait()
	for i := 0; i < updates; i++ {
		serial.Update(update(i), 2)
	}
	for i := 0; i < updates; i++ {
		u := update(i)
		if g, w := m.Score(u.Subject, u.Predicate, u.Object), serial.Score(u.Subject, u.Predicate, u.Object); g != w {
			t.Fatalf("update %d: Score beside readers %v, serial %v", i, g, w)
		}
	}
	if g, w := m.String(), serial.String(); g != w {
		t.Fatalf("String beside readers %s, serial %s", g, w)
	}
}

// recoveryWorld draws 7,000 triples over 14 predicates whose subjects and
// objects are Zipf-skewed (s = 1.1, as in benchmark/) over 2,500 entities
// with company-length names: about the size of the fact log a reopened
// store retrains on.
func recoveryWorld(seed int64) []core.Triple {
	r := rand.New(rand.NewSource(seed))
	ent := rand.NewZipf(r, 1.1, 1, 2499)
	pred := rand.NewZipf(r, 1.1, 1, 13)
	out := make([]core.Triple, 7000)
	for i := range out {
		out[i] = core.Triple{
			Subject:    fmt.Sprintf("Company %05d", ent.Uint64()),
			Predicate:  fmt.Sprintf("p%d", pred.Uint64()),
			Object:     fmt.Sprintf("Company %05d", ent.Uint64()),
			Confidence: 1,
		}
	}
	return out
}

// BenchmarkTrainRecoveryScale times Train at DefaultConfig on a fact log of
// the size recovery assembles from.
func BenchmarkTrainRecoveryScale(b *testing.B) {
	train := recoveryWorld(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(train, DefaultConfig())
	}
}

// shape is one predicate of a mirrored fact log: its pair count and the
// distinct subjects and objects the pairs span.
type shape struct {
	pred                     string
	pairs, subjects, objects int
}

// shapedWorld builds a fact log with the given per-predicate shapes.
func shapedWorld(shapes []shape) []core.Triple {
	var out []core.Triple
	for _, sh := range shapes {
		seen := map[[2]int]bool{}
		for i := 0; i < sh.pairs; i++ {
			s, o := i%sh.subjects, i%sh.objects
			for seen[[2]int{s, o}] {
				o = (o + 1) % sh.objects
			}
			seen[[2]int{s, o}] = true
			out = append(out, core.Triple{
				Subject:    fmt.Sprintf("Company %05d", s),
				Predicate:  sh.pred,
				Object:     fmt.Sprintf("Company %05d", o),
				Confidence: 1,
			})
		}
	}
	return out
}

// dominantWorld mirrors the whole fact log the restart_recover benchmark
// reopens at seed 1: 14 predicates and 6,908 pairs, of which acquired holds
// 5,525 over nearly distinct endpoints. The pairs, subject and object
// counts per predicate are that log's. Where one predicate holds most
// pairs, its apply side is the critical path of Train.
func dominantWorld() []core.Triple {
	return shapedWorld([]shape{
		{"acquired", 5525, 5523, 5522},
		{"approves", 8, 1, 8},
		{"bans", 9, 1, 9},
		{"ceoOf", 205, 131, 205},
		{"competesWith", 88, 88, 73},
		{"deploys", 17, 16, 16},
		{"develops", 223, 205, 11},
		{"foundedBy", 205, 205, 140},
		{"headquarteredIn", 205, 205, 21},
		{"invests", 29, 28, 24},
		{"manufactures", 351, 205, 114},
		{"partnersWith", 27, 24, 24},
		{"regulates", 1, 1, 1},
		{"worksFor", 15, 12, 15},
	})
}

// curatedWorld mirrors the curated substrate of that log, which is what
// recovery trains the gate model on: 1,213 pairs over 7 predicates, the
// largest (manufactures) holding a quarter of them.
func curatedWorld() []core.Triple {
	return shapedWorld([]shape{
		{"ceoOf", 205, 131, 205},
		{"competesWith", 88, 88, 73},
		{"develops", 206, 205, 11},
		{"foundedBy", 205, 205, 140},
		{"headquarteredIn", 205, 205, 21},
		{"manufactures", 303, 205, 109},
		{"regulates", 1, 1, 1},
	})
}

// BenchmarkTrainDominantPredicate times Train at DefaultConfig on the
// restart fact log's shape, where one predicate holds 80 % of the pairs.
func BenchmarkTrainDominantPredicate(b *testing.B) {
	train := dominantWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(train, DefaultConfig())
	}
}

// BenchmarkTrainCuratedScale times Train at DefaultConfig on the curated
// substrate's shape, the training set of every recovery.
func BenchmarkTrainCuratedScale(b *testing.B) {
	train := curatedWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(train, DefaultConfig())
	}
}

func BenchmarkTrain(b *testing.B) {
	train, _, _ := blockWorld(10, 8)
	cfg := DefaultConfig()
	cfg.Epochs = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(train, cfg)
	}
}

func BenchmarkScore(b *testing.B) {
	train, _, _ := blockWorld(10, 9)
	m := Train(train, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score("S0-1", "acquired", "O0-2")
	}
}
