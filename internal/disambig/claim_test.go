package disambig

import (
	"math"
	"strings"
	"testing"

	"nous/internal/analytics"
	"nous/internal/corpus"
)

// LinkPriorOnly resolves a mention to its most popular candidate — the
// baseline the paper's AIDA variant is measured against.
func (l *Linker) LinkPriorOnly(surface string) Result {
	names := l.kg.Candidates(surface)
	r := Result{Surface: surface, Ambiguous: len(names) > 1}
	prior := l.prior()
	best := math.Inf(-1)
	for _, n := range names {
		if p := prior[n]; p > best {
			best = p
			r.Entity = n
			r.Score = p
		}
	}
	return r
}

// claimC5Accuracy links every ambiguous mention (at least two candidates)
// of 800 articles rendered with AliasRate 0.9 from a seeded world, and
// returns the fraction the AIDA variant and the prior-only baseline resolve
// to the entity the article meant.
func claimC5Accuracy(t *testing.T, seed int64) (aida, prior float64) {
	t.Helper()
	wcfg := corpus.DefaultConfig()
	wcfg.Seed = seed
	w := corpus.Generate(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	acfg := corpus.DefaultArticleConfig(800)
	acfg.AliasRate = 0.9
	linker := NewLinker(kg, analytics.New(kg))
	total, aidaHit, priorHit := 0, 0, 0
	for _, a := range corpus.GenerateArticles(w, acfg) {
		ctx := strings.Fields(strings.ToLower(a.Text))
		for _, ml := range a.Mentions {
			if len(kg.Candidates(ml.Surface)) < 2 {
				continue
			}
			total++
			if linker.LinkOne(Mention{Surface: ml.Surface, Context: ctx}).Entity == ml.Entity {
				aidaHit++
			}
			if linker.LinkPriorOnly(ml.Surface).Entity == ml.Entity {
				priorHit++
			}
		}
	}
	if total == 0 {
		t.Fatalf("seed %d: no ambiguous mentions", seed)
	}
	return float64(aidaHit) / float64(total), float64(priorHit) / float64(total)
}

// TestClaimC5AIDABeatsPriorOnly checks the paper's claim C5, that the
// KG-neighbourhood AIDA variant disambiguates better than the popularity
// prior alone. Measured on seeds 1–10 over ambiguous mentions only:
//
//	AIDA variant   54.9–63.4 %
//	prior only     41.3–50.3 %
//	gap            8.3–15.0 points (smallest: seed 9)
//
// A seed costs ≈ 20 ms, so the test runs all ten and demands a gap of at
// least 5 points on each.
func TestClaimC5AIDABeatsPriorOnly(t *testing.T) {
	const minGap = 0.05
	for seed := int64(1); seed <= 10; seed++ {
		aida, prior := claimC5Accuracy(t, seed)
		if aida-prior < minGap {
			t.Errorf("seed %d: AIDA %.1f%%, prior only %.1f%%; want a gap of at least %.0f points",
				seed, 100*aida, 100*prior, 100*minGap)
		}
	}
}
