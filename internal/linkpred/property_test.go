package linkpred

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"nous/internal/core"
)

// refWorld is one random differential case: a training set, a seed and
// hyperparameters, and the online updates applied after training.
type refWorld struct {
	seed    int64
	hp      hyper
	train   []core.Triple
	updates []core.Triple
	steps   []int    // SGD steps per update
	preds   []string // every predicate used, plus one never used
	names   []string // every entity used, plus two never used
}

// newRefWorld draws 1–6 predicates over 2–60 entities with duplicate
// triples and self-loops. A predicate may have a single subject or a single
// object, which drives draw's skipped steps. Dim is 1–32 and Epochs 0–8,
// now and then replaced by the production hyperparameters; the updates
// bring in new subjects, objects and predicates.
func newRefWorld(seed int64) refWorld {
	r := rand.New(rand.NewSource(seed))
	nPred, nEnt := 1+r.Intn(6), 2+r.Intn(59)
	w := refWorld{hp: hyper{
		dim:          1 + r.Intn(32),
		epochs:       r.Intn(9),
		learningRate: r.Float64() * 0.2,
		reg:          r.Float64() * 0.05,
		negSamples:   r.Intn(5),
	}, seed: r.Int63()}
	if r.Intn(20) == 0 {
		w.hp = defaultHyper
	}
	ents := make([]string, nEnt)
	for i := range ents {
		ents[i] = fmt.Sprintf("e%d", i)
	}
	// shape: 0 free, 1 single subject, 2 single object.
	shape := make([]int, nPred)
	fixed := make([]string, nPred)
	for p := range shape {
		w.preds = append(w.preds, fmt.Sprintf("p%d", p))
		if r.Intn(3) == 0 {
			shape[p] = 1 + r.Intn(2)
		}
		fixed[p] = ents[r.Intn(nEnt)]
	}
	triple := func(p int, pool []string) core.Triple {
		s, o := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
		switch {
		case shape[p] == 1:
			s = fixed[p]
		case shape[p] == 2:
			o = fixed[p]
		case r.Intn(8) == 0:
			o = s // self-loop
		}
		return core.Triple{Subject: s, Predicate: w.preds[p], Object: o, Confidence: 1}
	}
	for n := r.Intn(3 * nEnt); n >= 0; n-- {
		if len(w.train) > 0 && r.Intn(5) == 0 {
			w.train = append(w.train, w.train[r.Intn(len(w.train))]) // duplicate
			continue
		}
		w.train = append(w.train, triple(r.Intn(nPred), ents))
	}

	fresh := append([]string(nil), ents...)
	for n := r.Intn(40); n > 0; n-- {
		if r.Intn(3) == 0 {
			fresh = append(fresh, fmt.Sprintf("new%d", len(fresh)))
		}
		var t core.Triple
		if r.Intn(6) == 0 {
			t = core.Triple{Subject: fresh[r.Intn(len(fresh))], Predicate: "late", Object: fresh[r.Intn(len(fresh))]}
		} else {
			t = triple(r.Intn(nPred), fresh)
			if r.Intn(3) == 0 {
				t.Subject = fresh[len(fresh)-1]
			}
		}
		w.updates = append(w.updates, t)
		w.steps = append(w.steps, r.Intn(5))
	}
	w.preds = append(w.preds, "late", "never")
	w.names = append(fresh, "ghost", "")
	return w
}

// sameModel demands equal Score bits on every (s, p, o) of the world, and
// equal Predicates and String.
func sameModel(t *testing.T, seed int64, when string, w refWorld, got *Model, want *refModel) {
	t.Helper()
	for _, p := range w.preds {
		for _, s := range w.names {
			for _, o := range w.names {
				g, x := got.Score(s, p, o), want.Score(s, p, o)
				if math.Float64bits(g) != math.Float64bits(x) {
					t.Fatalf("seed %d %s: Score(%q, %q, %q) = %v, reference %v", seed, when, s, p, o, g, x)
				}
			}
		}
	}
	if g, x := got.Predicates(), want.Predicates(); !reflect.DeepEqual(g, x) {
		t.Fatalf("seed %d %s: Predicates = %v, reference %v", seed, when, g, x)
	}
	if g, x := got.String(), want.String(); g != x {
		t.Fatalf("seed %d %s: String = %s, reference %s", seed, when, g, x)
	}
}

// checkTrainMatchesReference trains both models on one random world, then
// interleaves the world's updates, comparing after training, after every
// update on the updated triple, and after the last update on everything.
func checkTrainMatchesReference(t *testing.T, seed int64) {
	t.Helper()
	w := newRefWorld(seed)
	got, want := trainWith(w.train, w.seed, w.hp), refTrain(w.train, w.seed, w.hp)
	sameModel(t, seed, "after Train", w, got, want)
	for i, u := range w.updates {
		got.Update(u, w.steps[i])
		want.Update(u, w.steps[i])
		g, x := got.Score(u.Subject, u.Predicate, u.Object), want.Score(u.Subject, u.Predicate, u.Object)
		if math.Float64bits(g) != math.Float64bits(x) {
			t.Fatalf("seed %d update %d %v: Score = %v, reference %v", seed, i, u, g, x)
		}
	}
	sameModel(t, seed, "after updates", w, got, want)
}

// TestTrainMatchesReferenceProperty runs the differential check over 300
// seeded worlds.
func TestTrainMatchesReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		checkTrainMatchesReference(t, seed)
	}
}

func FuzzTrainMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkTrainMatchesReference)
}

// TestTrainConcurrentMatchesReference pins Train's parallel apply side to
// the serial reference: on random worlds and on the recovery-sized world,
// trained under GOMAXPROCS 1, 2 and 8 and as four Train calls at once,
// every Score and String must be bit-equal to refTrain's.
func TestTrainConcurrentMatchesReference(t *testing.T) {
	var worlds []refWorld
	for seed := int64(1); seed <= 40; seed++ {
		worlds = append(worlds, newRefWorld(seed))
	}
	// An epoch of the recovery world's largest predicate spans two blocks;
	// four epochs keep the test short under the race detector. Its checked
	// names are the first 40 entities it trains on.
	rec := refWorld{seed: 1, hp: defaultHyper, train: recoveryWorld(3)}
	rec.hp.epochs = 4
	seenPred, seenName := map[string]bool{}, map[string]bool{}
	for _, tr := range rec.train {
		if !seenPred[tr.Predicate] {
			seenPred[tr.Predicate] = true
			rec.preds = append(rec.preds, tr.Predicate)
		}
		for _, e := range []string{tr.Subject, tr.Object} {
			if len(rec.names) < 40 && !seenName[e] {
				seenName[e] = true
				rec.names = append(rec.names, e)
			}
		}
	}
	rec.preds = append(rec.preds, "never")
	rec.names = append(rec.names, "ghost")
	worlds = append(worlds, rec)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for i, w := range worlds {
		seed, kind := int64(i+1), "random world"
		if i == len(worlds)-1 {
			seed, kind = 3, "recovery world"
		}
		want := refTrain(w.train, w.seed, w.hp)
		check := func(when string, got *Model) {
			t.Helper()
			when = kind + " " + when
			sameModel(t, seed, when, w, got, want)
			for _, tr := range w.train {
				g, x := got.Score(tr.Subject, tr.Predicate, tr.Object), want.Score(tr.Subject, tr.Predicate, tr.Object)
				if math.Float64bits(g) != math.Float64bits(x) {
					t.Fatalf("seed %d %s: Score(%v) = %v, reference %v", seed, when, tr, g, x)
				}
			}
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			check(fmt.Sprintf("at GOMAXPROCS %d", procs), trainWith(w.train, w.seed, w.hp))
		}
		runtime.GOMAXPROCS(prev)
		got := make([]*Model, 4)
		done := make(chan struct{})
		for j := range got {
			go func(j int) {
				got[j] = trainWith(w.train, w.seed, w.hp)
				done <- struct{}{}
			}(j)
		}
		for range got {
			<-done
		}
		for j, m := range got {
			check(fmt.Sprintf("in concurrent Train %d", j), m)
		}
	}
}
