package linkpred

import (
	"math/rand"

	"nous/internal/core"
)

// The baselines of the paper's claim C3 and the AUC that ranks BPR against
// them serve tests only (TestClaimC3BPRBeatsBaselines): the system scores
// facts with Model.Score alone.

// FrequencyBaseline scores (s,p,o) by the popularity of o as an object of p
// — the naive confidence heuristic the BPR model is compared against.
type FrequencyBaseline struct {
	objCount map[string]map[string]int // predicate -> object -> count
	maxCount map[string]int
}

// NewFrequencyBaseline counts object frequencies per predicate.
func NewFrequencyBaseline(triples []core.Triple) *FrequencyBaseline {
	b := &FrequencyBaseline{
		objCount: make(map[string]map[string]int),
		maxCount: make(map[string]int),
	}
	for _, t := range triples {
		byObj, ok := b.objCount[t.Predicate]
		if !ok {
			byObj = make(map[string]int)
			b.objCount[t.Predicate] = byObj
		}
		byObj[t.Object]++
		if byObj[t.Object] > b.maxCount[t.Predicate] {
			b.maxCount[t.Predicate] = byObj[t.Object]
		}
	}
	return b
}

// Score returns the normalized object popularity in [0,1].
func (b *FrequencyBaseline) Score(s, p, o string) float64 {
	byObj, ok := b.objCount[p]
	if !ok || b.maxCount[p] == 0 {
		return 0.5
	}
	return float64(byObj[o]) / float64(b.maxCount[p])
}

// CommonNeighborBaseline scores (s,p,o) by the Jaccard overlap of s and o's
// KG neighborhoods: a classical topology-only link predictor.
type CommonNeighborBaseline struct {
	kg *core.KG
}

// NewCommonNeighborBaseline wraps a KG.
func NewCommonNeighborBaseline(kg *core.KG) *CommonNeighborBaseline {
	return &CommonNeighborBaseline{kg: kg}
}

// Score returns the neighborhood Jaccard of subject and object.
func (b *CommonNeighborBaseline) Score(s, p, o string) float64 {
	ns := b.kg.Neighborhood(s, 1)
	no := b.kg.Neighborhood(o, 1)
	if len(ns) == 0 || len(no) == 0 {
		return 0
	}
	set := make(map[string]bool, len(ns))
	for _, x := range ns {
		set[x] = true
	}
	inter := 0
	for _, x := range no {
		if set[x] {
			inter++
		}
	}
	union := len(ns) + len(no) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Scorer is the common interface of the BPR model and its baselines.
type Scorer interface {
	Score(s, p, o string) float64
}

// EvalAUC measures any scorer's AUC on one predicate: held-out positives
// versus corruptions drawn from the provided object pool.
func EvalAUC(sc Scorer, p string, heldOut [][2]string, objectPool []string, isPositive func(s, o string) bool, samples int, seed int64) float64 {
	if len(heldOut) == 0 || len(objectPool) < 2 {
		return 0.5
	}
	rng := rand.New(rand.NewSource(seed))
	wins, total := 0.0, 0.0
	for _, pos := range heldOut {
		for k := 0; k < samples; k++ {
			negO := objectPool[rng.Intn(len(objectPool))]
			if negO == pos[1] || isPositive(pos[0], negO) {
				continue
			}
			ps := sc.Score(pos[0], p, pos[1])
			ns := sc.Score(pos[0], p, negO)
			switch {
			case ps > ns:
				wins++
			case ps == ns:
				wins += 0.5
			}
			total++
		}
	}
	if total == 0 {
		return 0.5
	}
	return wins / total
}
