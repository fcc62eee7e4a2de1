package linkpred

// This file pins the dense-row model to the string-keyed model it replaced:
// refModel/refTrain are that implementation verbatim, with identifiers
// renamed, and the property in property_test.go demands bit-identical
// scores from both on random worlds.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"nous/internal/core"
)

// refPredModel holds the factors of one predicate.
type refPredModel struct {
	subj map[string][]float64 // subject factors by entity
	obj  map[string][]float64 // object factors by entity
	// positives are the observed (s,o) pairs, for negative sampling and
	// the frequency baseline; pairs preserves insertion order so training
	// is deterministic under a fixed seed.
	positives map[[2]string]bool
	pairs     [][2]string
	subjects  []string
	objects   []string
}

// refModel is a trained collection of per-predicate BPR models. It is safe
// for concurrent use: online Updates from the ingest stream take the write
// lock, and queries scoring candidate facts take the read lock.
type refModel struct {
	mu     sync.RWMutex
	hp     hyper
	preds  map[string]*refPredModel
	rng    *rand.Rand
	global float64 // global mean score used for unseen predicates
}

// refTrain fits a model on the given triples (typically the curated KB plus
// high-confidence extractions so far).
func refTrain(triples []core.Triple, seed int64, hp hyper) *refModel {
	m := &refModel{hp: hp, preds: make(map[string]*refPredModel), rng: rand.New(rand.NewSource(seed)), global: 0.5}
	for _, t := range triples {
		m.observe(t)
	}
	for ep := 0; ep < hp.epochs; ep++ {
		m.epoch()
	}
	return m
}

// observe registers a triple with its predicate model, initializing factors
// for unseen entities. The caller holds the write lock, or owns the model
// before it is shared.
func (m *refModel) observe(t core.Triple) {
	pm, ok := m.preds[t.Predicate]
	if !ok {
		pm = &refPredModel{
			subj:      make(map[string][]float64),
			obj:       make(map[string][]float64),
			positives: make(map[[2]string]bool),
		}
		m.preds[t.Predicate] = pm
	}
	if _, ok := pm.subj[t.Subject]; !ok {
		pm.subj[t.Subject] = m.randVec()
		pm.subjects = append(pm.subjects, t.Subject)
	}
	if _, ok := pm.obj[t.Object]; !ok {
		pm.obj[t.Object] = m.randVec()
		pm.objects = append(pm.objects, t.Object)
	}
	pair := [2]string{t.Subject, t.Object}
	if !pm.positives[pair] {
		pm.positives[pair] = true
		pm.pairs = append(pm.pairs, pair)
	}
}

func (m *refModel) randVec() []float64 {
	v := make([]float64, m.hp.dim)
	scale := 1.0 / math.Sqrt(float64(m.hp.dim))
	for i := range v {
		v[i] = (m.rng.Float64()*2 - 1) * scale
	}
	return v
}

// epoch runs one BPR-SGD pass over all predicates.
func (m *refModel) epoch() {
	names := make([]string, 0, len(m.preds))
	for p := range m.preds {
		names = append(names, p)
	}
	sort.Strings(names) // deterministic epoch order
	for _, p := range names {
		pm := m.preds[p]
		for _, pair := range pm.pairs {
			for k := 0; k < m.hp.negSamples; k++ {
				m.bprStep(pm, pair[0], pair[1])
			}
		}
	}
}

// bprStep performs one BPR update: positive (s,o) against a corrupted
// object o' (or subject s', alternating).
func (m *refModel) bprStep(pm *refPredModel, s, o string) {
	corruptObject := m.rng.Intn(2) == 0
	var negS, negO string
	if corruptObject && len(pm.objects) > 1 {
		negS = s
		negO = pm.objects[m.rng.Intn(len(pm.objects))]
		if pm.positives[[2]string{negS, negO}] {
			return // sampled a positive; skip this step
		}
	} else if len(pm.subjects) > 1 {
		negO = o
		negS = pm.subjects[m.rng.Intn(len(pm.subjects))]
		if pm.positives[[2]string{negS, negO}] {
			return
		}
	} else {
		return
	}

	us, vo := pm.subj[s], pm.obj[o]
	un, vn := pm.subj[negS], pm.obj[negO]
	xPos := refDot(us, vo)
	xNeg := refDot(un, vn)
	// d/dθ of -ln σ(xPos - xNeg)
	g := refSigmoid(xNeg - xPos) // = 1 - σ(xPos-xNeg)
	lr, reg := m.hp.learningRate, m.hp.reg

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
func (m *refModel) Score(s, p, o string) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.score(s, p, o)
}

func (m *refModel) score(s, p, o string) float64 {
	pm, ok := m.preds[p]
	if !ok {
		return m.global
	}
	us, okS := pm.subj[s]
	vo, okO := pm.obj[o]
	if !okS || !okO {
		// Back off: an entity never seen in this role carries no signal.
		return m.global
	}
	return refSigmoid(refDot(us, vo))
}

// Update performs online training on a new triple: it is registered as a
// positive and receives a few SGD steps, supporting the paper's dynamic-KG
// setting where extraction and scoring interleave.
func (m *refModel) Update(t core.Triple, steps int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observe(t)
	pm := m.preds[t.Predicate]
	for i := 0; i < steps; i++ {
		m.bprStep(pm, t.Subject, t.Object)
	}
}

// Predicates returns the predicates the model covers, sorted.
func (m *refModel) Predicates() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.preds))
	for p := range m.preds {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// String summarises the model.
func (m *refModel) String() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, pm := range m.preds {
		n += len(pm.positives)
	}
	return fmt.Sprintf("linkpred.Model{predicates: %d, positives: %d, dim: %d}", len(m.preds), n, m.hp.dim)
}

func refDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func refSigmoid(x float64) float64 {
	return 1.0 / (1.0 + math.Exp(-x))
}
