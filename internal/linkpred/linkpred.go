// Package linkpred implements the confidence-estimation stage of §3.4:
// per-predicate latent-feature embedding models trained with Bayesian
// Personalized Ranking (Zhang et al., "Trust from the past", SDM-MNG 2016).
// For every predicate a model learns subject and object factor vectors such
// that observed (s,p,o) triples score higher than corrupted ones; the
// sigmoid of the factor product yields a confidence in (0,1) used to gate
// noisy extracted facts before they enter the knowledge graph. Frequency
// and common-neighbor baselines are included for the evaluation.
package linkpred

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"nous/internal/core"
)

// Config controls BPR training.
type Config struct {
	Dim          int     // latent dimension
	Epochs       int     // passes over the training triples
	LearningRate float64 // SGD step size
	Reg          float64 // L2 regularization
	NegSamples   int     // corrupted samples per positive per epoch
	Seed         int64
}

// DefaultConfig is tuned for KGs in the 10^2–10^5 triple range.
func DefaultConfig() Config {
	return Config{Dim: 16, Epochs: 30, LearningRate: 0.05, Reg: 0.01, NegSamples: 4, Seed: 1}
}

// predModel holds the factors of one predicate. Every entity seen as a
// subject (object) owns a row, numbered in order of first sight; a row
// number is also the negative sampler's draw, so training touches only
// integers and flat arrays, never a string.
type predModel struct {
	subjIdx map[string]int32 // subject row by entity
	objIdx  map[string]int32 // object row by entity
	subj    []float64        // subject factors, Dim values per row
	obj     []float64        // object factors, Dim values per row
	// positives are the observed (s,o) row pairs keyed s<<32|o, for
	// negative sampling; pairs preserves insertion order so training is
	// deterministic under a fixed seed.
	positives map[uint64]struct{}
	pairs     [][2]int32
}

func pairKey(s, o int32) uint64 { return uint64(s)<<32 | uint64(uint32(o)) }

func (pm *predModel) positive(s, o int32) bool {
	_, ok := pm.positives[pairKey(s, o)]
	return ok
}

// Model is a trained collection of per-predicate BPR models. It is safe
// for concurrent use: online Updates from the ingest stream take the write
// lock, and queries scoring candidate facts take the read lock.
type Model struct {
	mu     sync.RWMutex
	cfg    Config
	preds  map[string]*predModel
	rng    *rand.Rand
	global float64 // global mean score used for unseen predicates
}

// Train fits a model on the given triples (typically the curated KB plus
// high-confidence extractions so far).
func Train(triples []core.Triple, cfg Config) *Model {
	if cfg.Dim <= 0 {
		cfg = DefaultConfig()
	}
	m := &Model{cfg: cfg, preds: make(map[string]*predModel), rng: rand.New(rand.NewSource(cfg.Seed)), global: 0.5}
	for _, t := range triples {
		m.observe(t)
	}
	names := m.predicates() // deterministic epoch order
	for ep := 0; ep < cfg.Epochs; ep++ {
		for _, p := range names {
			pm := m.preds[p]
			for _, pair := range pm.pairs {
				for k := 0; k < cfg.NegSamples; k++ {
					m.bprStep(pm, pair[0], pair[1])
				}
			}
		}
	}
	return m
}

// observe registers a triple with its predicate model, initializing factors
// for unseen entities, and returns the model with the triple's rows. The
// caller holds the write lock, or owns the model before it is shared.
func (m *Model) observe(t core.Triple) (pm *predModel, s, o int32) {
	pm, ok := m.preds[t.Predicate]
	if !ok {
		pm = &predModel{
			subjIdx:   make(map[string]int32),
			objIdx:    make(map[string]int32),
			positives: make(map[uint64]struct{}),
		}
		m.preds[t.Predicate] = pm
	}
	if s, ok = pm.subjIdx[t.Subject]; !ok {
		s = int32(len(pm.subjIdx))
		pm.subjIdx[t.Subject] = s
		pm.subj = m.appendRandVec(pm.subj)
	}
	if o, ok = pm.objIdx[t.Object]; !ok {
		o = int32(len(pm.objIdx))
		pm.objIdx[t.Object] = o
		pm.obj = m.appendRandVec(pm.obj)
	}
	if !pm.positive(s, o) {
		pm.positives[pairKey(s, o)] = struct{}{}
		pm.pairs = append(pm.pairs, [2]int32{s, o})
	}
	return pm, s, o
}

// appendRandVec appends one randomly initialized row to a factor array.
func (m *Model) appendRandVec(v []float64) []float64 {
	scale := 1.0 / math.Sqrt(float64(m.cfg.Dim))
	for i := 0; i < m.cfg.Dim; i++ {
		v = append(v, (m.rng.Float64()*2-1)*scale)
	}
	return v
}

// row returns factor row i of a flat factor array.
func (m *Model) row(v []float64, i int32) []float64 {
	d := m.cfg.Dim
	return v[int(i)*d : int(i)*d+d]
}

// bprStep performs one BPR update: positive (s,o) against a corrupted
// object o' (or subject s', alternating).
func (m *Model) bprStep(pm *predModel, s, o int32) {
	corruptObject := m.rng.Intn(2) == 0
	negS, negO := s, o
	if corruptObject && len(pm.objIdx) > 1 {
		negO = int32(m.rng.Intn(len(pm.objIdx)))
		if pm.positive(negS, negO) {
			return // sampled a positive; skip this step
		}
	} else if len(pm.subjIdx) > 1 {
		negS = int32(m.rng.Intn(len(pm.subjIdx)))
		if pm.positive(negS, negO) {
			return
		}
	} else {
		return
	}

	us, vo := m.row(pm.subj, s), m.row(pm.obj, o)
	un, vn := m.row(pm.subj, negS), m.row(pm.obj, negO)
	xPos := dot(us, vo)
	xNeg := dot(un, vn)
	// d/dθ of -ln σ(xPos - xNeg)
	g := sigmoid(xNeg - xPos) // = 1 - σ(xPos-xNeg)
	lr, reg := m.cfg.LearningRate, m.cfg.Reg

	for i := range us {
		gradUs := g*vo[i] - reg*us[i]
		gradVo := g*us[i] - reg*vo[i]
		gradUn := -g*vn[i] - reg*un[i]
		gradVn := -g*un[i] - reg*vn[i]
		// When the corrupted triple shares a factor vector with the
		// positive (same subject or same object), both gradients apply to
		// the shared vector; applying them sequentially is equivalent for
		// small steps.
		us[i] += lr * gradUs
		vo[i] += lr * gradVo
		un[i] += lr * gradUn
		vn[i] += lr * gradVn
	}
}

// Score returns the model's confidence in (s, p, o) as a sigmoid over the
// factor product. Unseen predicates or entities fall back to neutral 0.5
// scaled by how much of the triple is known.
func (m *Model) Score(s, p, o string) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.score(s, p, o)
}

func (m *Model) score(s, p, o string) float64 {
	pm, ok := m.preds[p]
	if !ok {
		return m.global
	}
	si, okS := pm.subjIdx[s]
	oi, okO := pm.objIdx[o]
	if !okS || !okO {
		// Back off: an entity never seen in this role carries no signal.
		return m.global
	}
	return m.rowScore(pm, si, oi)
}

func (m *Model) rowScore(pm *predModel, s, o int32) float64 {
	return sigmoid(dot(m.row(pm.subj, s), m.row(pm.obj, o)))
}

// Update performs online training on a new triple: it is registered as a
// positive and receives a few SGD steps, supporting the paper's dynamic-KG
// setting where extraction and scoring interleave.
func (m *Model) Update(t core.Triple, steps int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pm, s, o := m.observe(t)
	for i := 0; i < steps; i++ {
		m.bprStep(pm, s, o)
	}
}

// Predicates returns the predicates the model covers, sorted.
func (m *Model) Predicates() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.predicates()
}

func (m *Model) predicates() []string {
	out := make([]string, 0, len(m.preds))
	for p := range m.preds {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// AUC estimates ranking quality for one predicate: the probability that a
// held-out positive (s,o) outscores a random corrupted (s,o'). Returns 0.5
// for unknown predicates.
func (m *Model) AUC(p string, heldOut [][2]string, samples int, seed int64) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	pm, ok := m.preds[p]
	if !ok || len(pm.objIdx) < 2 || len(heldOut) == 0 {
		return 0.5
	}
	rng := rand.New(rand.NewSource(seed))
	wins, total := 0.0, 0.0
	for _, pos := range heldOut {
		s, okS := pm.subjIdx[pos[0]]
		o, okO := pm.objIdx[pos[1]]
		ps := m.global
		if okS && okO {
			ps = m.rowScore(pm, s, o)
		}
		for k := 0; k < samples; k++ {
			negO := int32(rng.Intn(len(pm.objIdx)))
			if okO && negO == o || okS && pm.positive(s, negO) {
				continue
			}
			ns := m.global
			if okS {
				ns = m.rowScore(pm, s, negO)
			}
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

// String summarises the model.
func (m *Model) String() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, pm := range m.preds {
		n += len(pm.positives)
	}
	return fmt.Sprintf("linkpred.Model{predicates: %d, positives: %d, dim: %d}", len(m.preds), n, m.cfg.Dim)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sigmoid(x float64) float64 {
	return 1.0 / (1.0 + math.Exp(-x))
}
