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
	// Seed seeds factor initialization and negative sampling.
	Seed int64
}

// DefaultConfig trains with seed 1.
func DefaultConfig() Config {
	return Config{Seed: 1}
}

// BPR's hyperparameters, tuned for KGs in the 10^2–10^5 triple range: 16
// latent dimensions, 30 passes over the training triples, SGD step 0.05, L2
// regularization 0.01 and 4 corrupted samples per positive per epoch. Every
// model trains with them; tests vary them through trainWith.
const (
	dim            = 16
	epochs         = 30
	learningRate   = 0.05
	regularization = 0.01
	negSamples     = 4
)

// hyper is one setting of the hyperparameters.
type hyper struct {
	dim, epochs, negSamples int
	learningRate, reg       float64
}

var defaultHyper = hyper{dim: dim, epochs: epochs, negSamples: negSamples, learningRate: learningRate, reg: regularization}

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

// Model is a collection of per-predicate BPR models, fitted on its first
// read: New returns a model that holds its seed, Capture adds training
// triples to it, and the first Score, Predicates, String or Update fits the
// factors and drops the captured triples. Train fits at once. Either way
// the fit is the same function of the same triples, so a model fitted late
// is bit-identical to one fitted early.
//
// A Model is safe for concurrent use: concurrent first reads wait for one
// fit, Update takes the write lock, and scoring takes the read lock. The
// ingest pipeline never calls Update, so its model does not change once
// fitted.
type Model struct {
	fitOnce  sync.Once
	captured []spo // the training set, nil once fitted
	seed     int64

	mu     sync.RWMutex
	hp     hyper
	preds  map[string]*predModel
	rng    *rand.Rand
	global float64 // global mean score used for unseen predicates
}

// spo is one captured training triple: the subject, predicate and object,
// which are all the fit reads of a fact.
type spo struct{ s, p, o string }

// New returns a model with an empty training set. Capture fills it, and the
// first read fits on what was captured. The ingest pipeline captures the
// curated KB's facts alone, during assembly's seeding pass
// (stream.Pipeline.Seed), so a reopen or a follower bootstrap pays for no
// fit until a document is gated or a fact's plausibility is asked.
func New(cfg Config) *Model {
	return newWith(nil, cfg.Seed, defaultHyper)
}

// Capture appends (s, p, o) to the training set. Every Capture must happen
// before the model's first read, from one goroutine: the fit consumes the
// set once, and a triple captured after it is never trained on.
func (m *Model) Capture(s, p, o string) {
	m.captured = append(m.captured, spo{s, p, o})
}

// Train fits a model on the given triples at once: New, a Capture of each
// triple, then the fit.
//
// The epochs run on two sides. This goroutine makes every step's random
// choices (draw) in the serial order — epoch, predicate, pair, sample — and
// hands each predicate's steps, in blocks, to a goroutine that owns that
// predicate's factor rows and applies them (apply) in the order received.
// The draws read no factor value: they depend only on the rng, on row
// counts and on the positive set, none of which changes during training.
// Predicates share no rows. So every row sees the updates of the serial
// pass in the serial order, and the model is bit-identical to it.
func Train(triples []core.Triple, cfg Config) *Model {
	return trainWith(triples, cfg.Seed, defaultHyper)
}

// newWith is New under the given seed and hyperparameters, with triples
// captured.
func newWith(triples []core.Triple, seed int64, hp hyper) *Model {
	m := &Model{seed: seed, hp: hp, global: 0.5}
	for _, t := range triples {
		m.Capture(t.Subject, t.Predicate, t.Object)
	}
	return m
}

// trainWith is Train under the given seed and hyperparameters.
func trainWith(triples []core.Triple, seed int64, hp hyper) *Model {
	m := newWith(triples, seed, hp)
	m.fitted()
	return m
}

// fitted fits the model on its captured triples the first time it is
// called; every later call, from any goroutine, returns once that fit is
// done.
func (m *Model) fitted() { m.fitOnce.Do(m.fit) }

// fit trains the factors on the captured triples and then drops them.
func (m *Model) fit() {
	hp := m.hp
	m.preds, m.rng = make(map[string]*predModel), rand.New(rand.NewSource(m.seed))
	for _, t := range m.captured {
		m.observe(t.s, t.p, t.o)
	}
	m.captured = nil
	names := m.predicates() // deterministic epoch order

	// free holds the blocks not in flight; each queue can take all of
	// them, so the drawing side blocks only on free. A block never spans
	// two predicates or two epochs, so none need be longer than the largest
	// predicate's epoch, and a small model gets small blocks.
	size := 1
	for _, pm := range m.preds {
		size = max(size, len(pm.pairs)*hp.negSamples)
	}
	size = min(size, blockSteps)
	free := make(chan []step, trainBlocks)
	for i := 0; i < trainBlocks; i++ {
		free <- make([]step, 0, size)
	}
	// One applying goroutine per predicate: a parked goroutine costs less
	// than the predicate's own row maps, and the scheduler places them.
	queues := make([]chan []step, len(names))
	var wg sync.WaitGroup
	for i, p := range names {
		queues[i] = make(chan []step, trainBlocks)
		wg.Add(1)
		go func(pm *predModel, queue <-chan []step) {
			defer wg.Done()
			for b := range queue {
				for _, st := range b {
					m.apply(pm, st)
				}
				free <- b[:0]
			}
		}(m.preds[p], queues[i])
	}
	for ep := 0; ep < hp.epochs; ep++ {
		for i, p := range names {
			pm := m.preds[p]
			b := <-free
			for _, pair := range pm.pairs {
				for k := 0; k < hp.negSamples; k++ {
					st, ok := m.draw(pm, pair[0], pair[1])
					if !ok {
						continue
					}
					if len(b) == cap(b) {
						queues[i] <- b
						b = <-free
					}
					b = append(b, st)
				}
			}
			if len(b) > 0 {
				queues[i] <- b
			} else {
				free <- b
			}
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
}

// Training moves its drawn steps in trainBlocks blocks of at most
// blockSteps steps (16 bytes each): 512 KiB at most, whatever the size of
// the fact log. On a 2-vCPU host, BenchmarkTrainDominantPredicate at
// -cpu 2 ran 2–12 % faster with blocks of 4,096 steps than of 1,024 (two
// sets of 8–10 alternating runs). With 1,024-step blocks, two in flight
// instead of eight made it ≈ 12 % slower and BenchmarkTrainRecoveryScale
// ≈ 50 % slower: the drawing side must run far enough ahead of the
// busiest predicate to keep its goroutine fed.
const (
	trainBlocks = 8
	blockSteps  = 4096
)

// step is one drawn BPR update: the positive rows (s, o) against the
// corrupted rows (negS, negO).
type step struct{ s, o, negS, negO int32 }

// observe registers the triple (subj, pred, obj) with its predicate model,
// initializing factors for unseen entities, and returns the model with the
// triple's rows. The caller holds the write lock, or is the fit, which
// every reader waits for.
func (m *Model) observe(subj, pred, obj string) (pm *predModel, s, o int32) {
	pm, ok := m.preds[pred]
	if !ok {
		pm = &predModel{
			subjIdx:   make(map[string]int32),
			objIdx:    make(map[string]int32),
			positives: make(map[uint64]struct{}),
		}
		m.preds[pred] = pm
	}
	if s, ok = pm.subjIdx[subj]; !ok {
		s = int32(len(pm.subjIdx))
		pm.subjIdx[subj] = s
		pm.subj = m.appendRandVec(pm.subj)
	}
	if o, ok = pm.objIdx[obj]; !ok {
		o = int32(len(pm.objIdx))
		pm.objIdx[obj] = o
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
	scale := 1.0 / math.Sqrt(float64(m.hp.dim))
	for i := 0; i < m.hp.dim; i++ {
		v = append(v, (m.rng.Float64()*2-1)*scale)
	}
	return v
}

// row returns factor row i of a flat factor array.
func (m *Model) row(v []float64, i int32) []float64 {
	d := m.hp.dim
	return v[int(i)*d:][:d]
}

// draw makes one BPR step's random choices for the positive (s, o): a coin
// picks the role to corrupt (the object, or the subject when the object
// has one row), then a row is drawn for it. ok is false when the step is
// skipped: the predicate has one row in the role, or the draw is itself a
// positive. draw reads the rng, the row counts and the positive set, never
// a factor.
func (m *Model) draw(pm *predModel, s, o int32) (st step, ok bool) {
	st = step{s: s, o: o, negS: s, negO: o}
	corruptObject := m.rng.Intn(2) == 0
	if corruptObject && len(pm.objIdx) > 1 {
		st.negO = int32(m.rng.Intn(len(pm.objIdx)))
	} else if len(pm.subjIdx) > 1 {
		st.negS = int32(m.rng.Intn(len(pm.subjIdx)))
	} else {
		return st, false
	}
	return st, !pm.positive(st.negS, st.negO)
}

// apply performs one drawn BPR update, a gradient step on -ln σ(xPos-xNeg).
// When the corrupted triple shares a row with the positive (same subject
// or same object), both gradients, computed from the row's old value, are
// added to it one after the other. Floating-point addition is not
// associative, so the order of the four in-place updates is part of the
// bit-identity contract refTrain pins; do not reorder them.
func (m *Model) apply(pm *predModel, st step) {
	us, vo := m.row(pm.subj, st.s), m.row(pm.obj, st.o)
	un, vn := m.row(pm.subj, st.negS), m.row(pm.obj, st.negO)
	xPos := dot(us, vo)
	xNeg := dot(un, vn)
	g := sigmoid(xNeg - xPos) // = 1 - σ(xPos-xNeg)
	lr, reg := m.hp.learningRate, m.hp.reg
	for i := range us {
		gradUs := g*vo[i] - reg*us[i]
		gradVo := g*us[i] - reg*vo[i]
		gradUn := -g*vn[i] - reg*un[i]
		gradVn := -g*un[i] - reg*vn[i]
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
	m.fitted()
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
// positive and receives a few SGD steps. The ingest pipeline does not call
// it; its only caller outside tests is the system benchmark's traced
// linkpred.update span.
func (m *Model) Update(t core.Triple, steps int) {
	m.fitted()
	m.mu.Lock()
	defer m.mu.Unlock()
	pm, s, o := m.observe(t.Subject, t.Predicate, t.Object)
	for i := 0; i < steps; i++ {
		if st, ok := m.draw(pm, s, o); ok {
			m.apply(pm, st)
		}
	}
}

// Predicates returns the predicates the model covers, sorted.
func (m *Model) Predicates() []string {
	m.fitted()
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

// String summarises the model.
func (m *Model) String() string {
	m.fitted()
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, pm := range m.preds {
		n += len(pm.positives)
	}
	return fmt.Sprintf("linkpred.Model{predicates: %d, positives: %d, dim: %d}", len(m.preds), n, m.hp.dim)
}

func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sigmoid(x float64) float64 {
	return 1.0 / (1.0 + math.Exp(-x))
}
