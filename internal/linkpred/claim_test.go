package linkpred

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"nous/internal/core"
	"nous/internal/corpus"
)

// claimPreds are the three densest predicates of the generated world.
var claimPreds = []string{"acquired", "partnersWith", "invests"}

// claimC3AUCs measures the paper's claim C3: on a world of 5,000 events it
// holds out a fifth of each dense predicate's true pairs, trains BPR on the
// rest of the curated and true event triples, and measures the AUC of BPR,
// the frequency baseline and the common-neighbour baseline against
// corrupted objects. It returns {BPR, frequency, common-neighbour} per
// predicate of claimPreds.
func claimC3AUCs(t *testing.T, seed int64) [][3]float64 {
	t.Helper()
	wcfg := corpus.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Events = 5000 // dense stream: every subject has several positives to learn from
	w := corpus.Generate(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}

	byPred := map[string][][2]string{}
	var all []core.Triple
	for _, tr := range w.Curated {
		all = append(all, tr)
		byPred[tr.Predicate] = append(byPred[tr.Predicate], [2]string{tr.Subject, tr.Object})
	}
	for _, e := range w.Events {
		if e.Rumor {
			continue
		}
		all = append(all, core.Triple{Subject: e.Subject, Predicate: e.Predicate, Object: e.Object, Confidence: 1})
		byPred[e.Predicate] = append(byPred[e.Predicate], [2]string{e.Subject, e.Object})
	}
	rng := rand.New(rand.NewSource(seed))

	var out [][3]float64
	for _, pred := range claimPreds {
		pairs := byPred[pred]
		if len(pairs) < 20 {
			t.Fatalf("seed %d: %s has %d pairs, want >= 20", seed, pred, len(pairs))
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		test := pairs[len(pairs)*4/5:]
		testSet := map[[2]string]bool{}
		for _, p := range test {
			testSet[p] = true
		}
		var train []core.Triple
		for _, tr := range all {
			if tr.Predicate == pred && testSet[[2]string{tr.Subject, tr.Object}] {
				continue
			}
			train = append(train, tr)
		}
		posSet := map[[2]string]bool{}
		var pool []string
		seen := map[string]bool{}
		for _, p := range pairs {
			posSet[p] = true
			if !seen[p[1]] {
				seen[p[1]] = true
				pool = append(pool, p[1])
			}
		}
		sort.Strings(pool)
		isPos := func(s, o string) bool { return posSet[[2]string{s, o}] }

		hp := defaultHyper
		hp.epochs = 60
		out = append(out, [3]float64{
			EvalAUC(trainWith(train, 1, hp), pred, test, pool, isPos, 20, seed),
			EvalAUC(NewFrequencyBaseline(train), pred, test, pool, isPos, 20, seed),
			EvalAUC(NewCommonNeighborBaseline(kg), pred, test, pool, isPos, 20, seed),
		})
	}
	return out
}

// TestClaimC3BPRBeatsBaselines pins the paper's claim C3: BPR link
// prediction ranks held-out true facts above the frequency and
// common-neighbour baselines on the three densest predicates.
//
// Measured on seeds 1–10, 30 (seed, predicate) cases. The mean AUCs are
// BPR 0.5715, frequency 0.4780 and common-neighbour 0.5635. BPR is at or
// above the frequency baseline in 28/30 cases, and at or above common
// neighbours in only 16/30. Per predicate the means (BPR / frequency /
// common-neighbour) are acquired 0.5639 / 0.4746 / 0.5675, invests
// 0.5633 / 0.4668 / 0.5649 and partnersWith 0.5871 / 0.4926 / 0.5580. So
// the claim holds against frequency on every predicate, but against common
// neighbours only in the overall mean. The test demands exactly that, and
// the measured win counts as floors.
func TestClaimC3BPRBeatsBaselines(t *testing.T) {
	const seeds = 10
	aucs := make([][][3]float64, seeds)
	t.Run("seeds", func(t *testing.T) {
		for i := range aucs {
			t.Run(fmt.Sprint(i+1), func(t *testing.T) {
				t.Parallel()
				aucs[i] = claimC3AUCs(t, int64(i+1))
			})
		}
	})
	var mean [3]float64
	perPred := make([][3]float64, len(claimPreds))
	winsFreq, winsCN := 0, 0
	for i, bySeed := range aucs {
		for p, auc := range bySeed {
			t.Logf("seed %d %-12s BPR %v frequency %v common-neighbour %v", i+1, claimPreds[p], auc[0], auc[1], auc[2])
			for k := range auc {
				mean[k] += auc[k]
				perPred[p][k] += auc[k]
			}
			if auc[0] >= auc[1] {
				winsFreq++
			}
			if auc[0] >= auc[2] {
				winsCN++
			}
		}
	}
	if n := float64(seeds * len(claimPreds)); mean[0] < mean[1] || mean[0] < mean[2] {
		t.Errorf("mean AUC over %v cases: BPR %.4f, frequency %.4f, common-neighbour %.4f; want BPR highest",
			n, mean[0]/n, mean[1]/n, mean[2]/n)
	}
	for p, sum := range perPred {
		if sum[0] < sum[1] {
			t.Errorf("%s: mean BPR AUC %.4f below frequency %.4f", claimPreds[p], sum[0]/seeds, sum[1]/seeds)
		}
	}
	if winsFreq < 28 || winsCN < 16 {
		t.Errorf("BPR at or above frequency in %d/30 cases and common-neighbour in %d/30; want >= 28 and >= 16", winsFreq, winsCN)
	}
}
