// Package topics implements Latent Dirichlet Allocation via collapsed Gibbs
// sampling, plus the Jensen–Shannon divergence used to compare topic
// distributions. NOUS (§3.6) assigns a topic distribution to every entity by
// running LDA over "document-term" matrices built from per-entity text; the
// path-search look-ahead then steers toward nodes whose topics diverge least
// from the target's.
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

// DefaultConfig returns a sensible small-corpus configuration. The sparse
// document-topic prior (α = 0.2) matters: entity profile documents are
// short, and the textbook α = 50/K would swamp their counts.
func DefaultConfig(k int) Config {
	return Config{K: k, Alpha: 0.2, Beta: 0.01, Iters: 150, Seed: 1}
}

// Model is a fitted LDA model.
type Model struct {
	cfg Config
	// counters from the final Gibbs state
	docTopic [][]int // d -> k
	docLen   []int
}

// Fit runs collapsed Gibbs sampling over the documents (bags of words).
// Empty documents are allowed and receive the uniform distribution.
func Fit(docs [][]string, cfg Config) *Model {
	if cfg.K <= 0 {
		cfg.K = 8
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 100
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.2
	}
	if cfg.Beta <= 0 {
		cfg.Beta = 0.01
	}
	vocab := make(map[string]int)
	wordIDs := make([][]int, len(docs)) // d -> position -> word index
	for d, doc := range docs {
		ids := make([]int, 0, len(doc))
		for _, w := range doc {
			id, ok := vocab[w]
			if !ok {
				id = len(vocab)
				vocab[w] = id
			}
			ids = append(ids, id)
		}
		wordIDs[d] = ids
	}
	V := len(vocab)
	K := cfg.K
	m := &Model{cfg: cfg, docTopic: makeInts(len(docs), K), docLen: make([]int, len(docs))}
	topicWord := makeInts(K, V) // k -> w
	topicSum := make([]int, K)
	assign := make([][]int, len(docs)) // d -> position -> topic

	rng := rand.New(rand.NewSource(cfg.Seed))
	for d, ids := range wordIDs {
		assign[d] = make([]int, len(ids))
		m.docLen[d] = len(ids)
		for i, w := range ids {
			k := rng.Intn(K)
			assign[d][i] = k
			m.docTopic[d][k]++
			topicWord[k][w]++
			topicSum[k]++
		}
	}

	probs := make([]float64, K)
	for it := 0; it < cfg.Iters; it++ {
		for d, ids := range wordIDs {
			for i, w := range ids {
				old := assign[d][i]
				m.docTopic[d][old]--
				topicWord[old][w]--
				topicSum[old]--

				total := 0.0
				for k := 0; k < K; k++ {
					p := (float64(m.docTopic[d][k]) + cfg.Alpha) *
						(float64(topicWord[k][w]) + cfg.Beta) /
						(float64(topicSum[k]) + cfg.Beta*float64(V))
					probs[k] = p
					total += p
				}
				u := rng.Float64() * total
				next := 0
				for acc := probs[0]; acc < u && next < K-1; {
					next++
					acc += probs[next]
				}
				assign[d][i] = next
				m.docTopic[d][next]++
				topicWord[next][w]++
				topicSum[next]++
			}
		}
	}
	return m
}

// K returns the topic count.
func (m *Model) K() int { return m.cfg.K }

// DocTopics returns the smoothed topic distribution θ_d of training
// document d. Empty documents get the uniform distribution.
func (m *Model) DocTopics(d int) []float64 {
	K := m.cfg.K
	out := make([]float64, K)
	if d < 0 || d >= len(m.docLen) {
		for k := range out {
			out[k] = 1.0 / float64(K)
		}
		return out
	}
	denom := float64(m.docLen[d]) + m.cfg.Alpha*float64(K)
	for k := 0; k < K; k++ {
		out[k] = (float64(m.docTopic[d][k]) + m.cfg.Alpha) / denom
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
