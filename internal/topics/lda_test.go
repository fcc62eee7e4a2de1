package topics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// twoTopicCorpus builds documents drawn from two disjoint vocabularies:
// "aviation" docs and "finance" docs. A 2-topic LDA should separate them.
func twoTopicCorpus(n int, seed int64) ([][]string, []int) {
	aviation := []string{"drone", "flight", "camera", "aerial", "rotor", "gimbal", "airspace", "pilot"}
	finance := []string{"fund", "stock", "capital", "equity", "dividend", "portfolio", "bond", "yield"}
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]string, n)
	labels := make([]int, n)
	for i := range docs {
		var vocab []string
		if i%2 == 0 {
			vocab = aviation
			labels[i] = 0
		} else {
			vocab = finance
			labels[i] = 1
		}
		L := 20 + rng.Intn(10)
		doc := make([]string, L)
		for j := range doc {
			doc[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[i] = doc
	}
	return docs, labels
}

func TestThetaSumsToOne(t *testing.T) {
	docs, _ := twoTopicCorpus(20, 1)
	m := Fit(docs, DefaultConfig(4))
	for d := 0; d < len(docs); d++ {
		sum := 0.0
		for _, p := range m.DocTopics(d) {
			if p < 0 {
				t.Fatalf("negative topic probability in doc %d", d)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("doc %d theta sums to %v", d, sum)
		}
	}
}

func TestSeparatesTwoTopics(t *testing.T) {
	docs, labels := twoTopicCorpus(40, 2)
	cfg := DefaultConfig(2)
	m := Fit(docs, cfg)

	// Within-class JS divergence must be smaller than between-class.
	var within, between []float64
	for i := 0; i < len(docs); i++ {
		for j := i + 1; j < len(docs); j++ {
			d := JSDivergence(m.DocTopics(i), m.DocTopics(j))
			if labels[i] == labels[j] {
				within = append(within, d)
			} else {
				between = append(between, d)
			}
		}
	}
	if mean(within) >= mean(between) {
		t.Fatalf("LDA failed to separate: within %.4f >= between %.4f", mean(within), mean(between))
	}
}

func TestEmptyAndUnknownDocs(t *testing.T) {
	docs, _ := twoTopicCorpus(10, 5)
	docs = append(docs, nil) // empty doc
	m := Fit(docs, DefaultConfig(3))
	theta := m.DocTopics(len(docs) - 1)
	for _, p := range theta {
		if math.Abs(p-1.0/3.0) > 1e-9 {
			t.Fatalf("empty doc theta not uniform: %v", theta)
		}
	}
	for _, d := range []int{-1, len(docs)} {
		for _, p := range m.DocTopics(d) {
			if math.Abs(p-1.0/3.0) > 1e-9 {
				t.Fatalf("unknown doc %d theta not uniform: %v", d, m.DocTopics(d))
			}
		}
	}
}

func TestInferDocMatchesTraining(t *testing.T) {
	docs, _ := twoTopicCorpus(40, 4)
	m := Fit(docs, DefaultConfig(2))
	aviation := m.InferDoc([]string{"drone", "flight", "aerial", "rotor", "camera", "pilot"}, 50, 9)
	finance := m.InferDoc([]string{"fund", "stock", "equity", "bond", "capital"}, 50, 9)
	if JSDivergence(aviation, finance) < 0.05 {
		t.Fatalf("inferred thetas not separated: %v vs %v", aviation, finance)
	}
	// The inferred aviation doc is closer to a training aviation doc (even
	// index) than to a finance doc.
	if JSDivergence(aviation, m.DocTopics(0)) >= JSDivergence(aviation, m.DocTopics(1)) {
		t.Fatal("inferred aviation doc closer to finance docs")
	}
	// A fold-in is a function of (model, doc, sweeps, seed), and unknown
	// words are skipped.
	again := m.InferDoc([]string{"drone", "neverseen", "flight", "aerial", "rotor", "camera", "pilot"}, 50, 9)
	if !reflect.DeepEqual(again, aviation) {
		t.Fatalf("fold-in not deterministic: %v vs %v", again, aviation)
	}
	unknown := m.InferDoc([]string{"neverseen", "words"}, 20, 1)
	for _, p := range unknown {
		if math.Abs(p-0.5) > 1e-9 {
			t.Fatalf("unknown-vocabulary doc not uniform: %v", unknown)
		}
	}
}

// TestFitUsesConfigAsGiven: Fit replaces no zero field with a default.
// Zero sweeps leave the random initial assignment (before, 100 sweeps ran),
// and a zero K is refused (before, it became 8).
func TestFitUsesConfigAsGiven(t *testing.T) {
	docs, _ := twoTopicCorpus(20, 6)
	none := DefaultConfig(2)
	none.Iters = 0
	hundred := none
	hundred.Iters = 100
	a, b := Fit(docs, none), Fit(docs, hundred)
	same := true
	for d := range docs {
		if !reflect.DeepEqual(a.DocTopics(d), b.DocTopics(d)) {
			same = false
		}
	}
	if same {
		t.Fatal("Iters = 0 fitted like Iters = 100")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fit with K = 0 did not panic")
		}
	}()
	Fit(docs, Config{Alpha: 0.2, Beta: 0.01, Iters: 10, Seed: 1})
}

func TestDeterministicWithSeed(t *testing.T) {
	docs, _ := twoTopicCorpus(15, 6)
	a := Fit(docs, DefaultConfig(3))
	b := Fit(docs, DefaultConfig(3))
	for d := 0; d < len(docs); d++ {
		ta, tb := a.DocTopics(d), b.DocTopics(d)
		for k := range ta {
			if ta[k] != tb[k] {
				t.Fatalf("same seed, different theta at doc %d", d)
			}
		}
	}
}

func TestJSDivergenceProperties(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.9, 0.1}
	if d := JSDivergence(p, p); d > 1e-12 {
		t.Errorf("JS(p,p) = %v", d)
	}
	if d1, d2 := JSDivergence(p, q), JSDivergence(q, p); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("JS not symmetric: %v vs %v", d1, d2)
	}
	if d := JSDivergence([]float64{1, 0}, []float64{0, 1}); d > math.Log(2)+1e-9 {
		t.Errorf("JS exceeded ln2: %v", d)
	}
}

// Property: JS divergence of random distributions is within [0, ln2].
func TestJSDivergenceBoundsQuick(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p := normalize([]float64{float64(a) + 1, float64(b) + 1})
		q := normalize([]float64{float64(c) + 1, float64(d) + 1})
		js := JSDivergence(p, q)
		return js >= 0 && js <= math.Log(2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJSDivergenceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	JSDivergence([]float64{1}, []float64{0.5, 0.5})
}

func normalize(v []float64) []float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	for i := range v {
		v[i] /= s
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func BenchmarkFitLDA(b *testing.B) {
	docs, _ := twoTopicCorpus(100, 7)
	cfg := DefaultConfig(8)
	cfg.Iters = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(docs, cfg)
	}
}
