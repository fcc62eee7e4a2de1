// Package topics implements Latent Dirichlet Allocation via collapsed Gibbs
// sampling, plus the Jensen–Shannon divergence used to compare topic
// distributions. NOUS (§3.6) assigns a topic distribution to every entity
// from per-entity text: internal/analytics fits LDA over the curated
// entities' profile documents and folds each entity's document in
// (InferDoc). The path-search look-ahead then steers toward nodes whose
// topics diverge least from the target's.
package topics

import (
	"fmt"
	"math"
	"math/rand"
)

// Config controls LDA fitting.
type Config struct {
	K     int     // number of topics
	Alpha float64 // document-topic Dirichlet prior
	Beta  float64 // topic-word Dirichlet prior
	Iters int     // Gibbs sweeps
	Seed  int64
}

// DefaultConfig returns a sensible small-corpus configuration; it is the one
// constructor, and Fit replaces no field of what a caller passes. The sparse
// document-topic prior (α = 0.2) matters: entity profile documents are
// short, and the textbook α = 50/K would swamp their counts.
func DefaultConfig(k int) Config {
	return Config{K: k, Alpha: 0.2, Beta: 0.01, Iters: 150, Seed: 1}
}

// Model is a fitted LDA model.
type Model struct {
	cfg   Config
	vocab map[string]int // word -> index

	// topic-word counters from the final Gibbs state; InferDoc folds new
	// documents in against them
	topicWord [][]int // k -> w
	topicSum  []int   // k
}

// Fit runs collapsed Gibbs sampling over the documents (bags of words).
// Empty documents are allowed. The model keeps only the topic-word counters
// (documents' topic mixtures are read by folding a document in, InferDoc). cfg is
// used as given (start from DefaultConfig); K must be positive.
func Fit(docs [][]string, cfg Config) *Model {
	if cfg.K <= 0 {
		panic(fmt.Sprintf("topics: Fit with K = %d", cfg.K))
	}
	m := &Model{cfg: cfg, vocab: make(map[string]int)}
	wordIDs := make([][]int, len(docs)) // d -> position -> word index
	for d, doc := range docs {
		ids := make([]int, 0, len(doc))
		for _, w := range doc {
			id, ok := m.vocab[w]
			if !ok {
				id = len(m.vocab)
				m.vocab[w] = id
			}
			ids = append(ids, id)
		}
		wordIDs[d] = ids
	}
	V := len(m.vocab)
	K := cfg.K
	docTopic := makeInts(len(docs), K) // d -> k, needed only while sampling
	m.topicWord = makeInts(K, V)
	m.topicSum = make([]int, K)
	assign := make([][]int, len(docs)) // d -> position -> topic

	rng := rand.New(rand.NewSource(cfg.Seed))
	for d, ids := range wordIDs {
		assign[d] = make([]int, len(ids))
		for i, w := range ids {
			k := rng.Intn(K)
			assign[d][i] = k
			docTopic[d][k]++
			m.topicWord[k][w]++
			m.topicSum[k]++
		}
	}

	probs := make([]float64, K)
	for it := 0; it < cfg.Iters; it++ {
		for d, ids := range wordIDs {
			for i, w := range ids {
				old := assign[d][i]
				docTopic[d][old]--
				m.topicWord[old][w]--
				m.topicSum[old]--

				total := 0.0
				for k := 0; k < K; k++ {
					p := (float64(docTopic[d][k]) + cfg.Alpha) *
						(float64(m.topicWord[k][w]) + cfg.Beta) /
						(float64(m.topicSum[k]) + cfg.Beta*float64(V))
					probs[k] = p
					total += p
				}
				next := draw(probs, rng.Float64()*total)
				assign[d][i] = next
				docTopic[d][next]++
				m.topicWord[next][w]++
				m.topicSum[next]++
			}
		}
	}
	return m
}

// draw returns the topic whose cumulative weight first reaches u.
func draw(probs []float64, u float64) int {
	next := 0
	for acc := probs[0]; acc < u && next < len(probs)-1; {
		next++
		acc += probs[next]
	}
	return next
}

// InferDoc folds a new document into the fitted model: a Gibbs chain of
// iters sweeps over the document's own assignments, with the model's
// topic-word counters frozen, seeded by seed. Words outside the model's
// vocabulary are skipped; a document with none left gets the uniform
// distribution. The result is a function of (model, doc, iters, seed).
func (m *Model) InferDoc(doc []string, iters int, seed int64) []float64 {
	K := m.cfg.K
	ids := make([]int, 0, len(doc))
	for _, w := range doc {
		if id, ok := m.vocab[w]; ok {
			ids = append(ids, id)
		}
	}
	out := make([]float64, K)
	if len(ids) == 0 {
		for k := range out {
			out[k] = 1.0 / float64(K)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	V := float64(len(m.vocab))
	counts := make([]int, K)
	assign := make([]int, len(ids))
	for i := range ids {
		k := rng.Intn(K)
		assign[i] = k
		counts[k]++
	}
	probs := make([]float64, K)
	for it := 0; it < iters; it++ {
		for i, w := range ids {
			counts[assign[i]]--
			total := 0.0
			for k := 0; k < K; k++ {
				p := (float64(counts[k]) + m.cfg.Alpha) *
					(float64(m.topicWord[k][w]) + m.cfg.Beta) /
					(float64(m.topicSum[k]) + m.cfg.Beta*V)
				probs[k] = p
				total += p
			}
			next := draw(probs, rng.Float64()*total)
			assign[i] = next
			counts[next]++
		}
	}
	denom := float64(len(ids)) + m.cfg.Alpha*float64(K)
	for k := 0; k < K; k++ {
		out[k] = (float64(counts[k]) + m.cfg.Alpha) / denom
	}
	return out
}

// JSDivergence is the Jensen–Shannon divergence between two distributions
// (symmetric, bounded by ln 2). Mismatched lengths panic: that is a caller
// bug, not a data condition.
//
// It allocates nothing: both KL(·‖mid) sums accumulate in one pass, each
// with the same per-term arithmetic and summation order as two separate
// passes over a materialized midpoint, so the result is bit-identical to
// that form (path search ranks by these bits).
func JSDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("topics: JSDivergence length mismatch %d vs %d", len(p), len(q)))
	}
	klP, klQ := 0.0, 0.0
	for i := range p {
		m := (p[i] + q[i]) / 2
		if p[i] > 0 && m > 0 {
			klP += p[i] * math.Log(p[i]/m)
		}
		if q[i] > 0 && m > 0 {
			klQ += q[i] * math.Log(q[i]/m)
		}
	}
	return klP/2 + klQ/2
}

func makeInts(a, b int) [][]int {
	out := make([][]int, a)
	flat := make([]int, a*b)
	for i := range out {
		out[i], flat = flat[:b], flat[b:]
	}
	return out
}
