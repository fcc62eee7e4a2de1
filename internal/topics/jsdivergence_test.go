package topics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refJSDivergence is the two-pass form JSDivergence replaced: a materialized
// midpoint and one KL pass per side. JSDivergence must return its exact bits.
func refJSDivergence(p, q []float64) float64 {
	kl := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			if a[i] > 0 && b[i] > 0 {
				s += a[i] * math.Log(a[i]/b[i])
			}
		}
		return s
	}
	mid := make([]float64, len(p))
	for i := range p {
		mid[i] = (p[i] + q[i]) / 2
	}
	return kl(p, mid)/2 + kl(q, mid)/2
}

// divergencePair draws a pair of K-dimensional distributions (K = 1–16) with
// zero components, and with q often equal to p or a few ulps away from it —
// the cases where the divergence rounds to zero or slightly below.
func divergencePair(r *rand.Rand) (p, q []float64) {
	k := 1 + r.Intn(16)
	p, q = make([]float64, k), make([]float64, k)
	for i := range p {
		if r.Intn(4) > 0 {
			p[i] = r.Float64()
		}
		if r.Intn(4) > 0 {
			q[i] = r.Float64()
		}
	}
	normalize(p)
	normalize(q)
	switch r.Intn(3) {
	case 0: // identical
		copy(q, p)
	case 1: // near-identical: nudge every component by a few ulps
		for i := range q {
			q[i] = p[i]
			for n := r.Intn(4); n > 0; n-- {
				q[i] = math.Nextafter(q[i], float64(r.Intn(2)))
			}
		}
	}
	return p, q
}

func TestJSDivergenceBitIdenticalToTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		p, q := divergencePair(rand.New(rand.NewSource(seed)))
		got, want := JSDivergence(p, q), refJSDivergence(p, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("p=%v q=%v: got %v (%#x), want %v (%#x)", p, q, got, math.Float64bits(got), want, math.Float64bits(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestJSDivergenceAllocatesNothing(t *testing.T) {
	p, q := divergencePair(rand.New(rand.NewSource(1)))
	if n := testing.AllocsPerRun(100, func() { JSDivergence(p, q) }); n != 0 {
		t.Fatalf("JSDivergence allocates %v times per call", n)
	}
}
