package trust

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"nous/internal/ontology"
)

// refTracker is the map-based tracker the dense kernel replaced, kept as
// the reference the kernel is pinned to. It sums and multiplies in map
// iteration order, so two runs over one stream may differ in the last bits.
type refTracker struct {
	cfg    Config
	ont    *ontology.Ontology
	pinned map[string]float64

	// index: fact key -> asserting sources (set)
	bySources map[string]map[string]bool
	// functional conflict detection: (subject, functional predicate) -> objects
	functional map[string]map[string]bool

	trust map[string]float64
}

func newRefTracker(ont *ontology.Ontology, cfg Config) *refTracker {
	if cfg.Iterations <= 0 {
		cfg = DefaultConfig()
	}
	if ont == nil {
		ont = ontology.Default()
	}
	return &refTracker{
		cfg:        cfg,
		ont:        ont,
		pinned:     make(map[string]float64),
		bySources:  make(map[string]map[string]bool),
		functional: make(map[string]map[string]bool),
		trust:      make(map[string]float64),
	}
}

func (t *refTracker) Pin(source string, trust float64) {
	t.pinned[source] = clamp01(trust)
	t.trust[source] = t.pinned[source]
}

func (t *refTracker) Observe(a Assertion) {
	if a.Source == "" || a.Subject == "" || a.Object == "" {
		return
	}
	k := refFactKey(a)
	set, ok := t.bySources[k]
	if !ok {
		set = make(map[string]bool)
		t.bySources[k] = set
	}
	set[a.Source] = true
	if p, ok := t.ont.Predicate(a.Predicate); ok && p.Functional {
		fk := a.Subject + "\x00" + a.Predicate
		objs, ok := t.functional[fk]
		if !ok {
			objs = make(map[string]bool)
			t.functional[fk] = objs
		}
		objs[a.Object] = true
	}
	if _, ok := t.trust[a.Source]; !ok {
		t.trust[a.Source] = t.cfg.PriorTrust
	}
}

func (t *refTracker) Recompute() {
	for it := 0; it < t.cfg.Iterations; it++ {
		// 1. fact belief = 1 - Π (1 - trust(s)) over asserting sources,
		//    halved when the fact participates in a functional conflict.
		belief := make(map[string]float64, len(t.bySources))
		for k, sources := range t.bySources {
			disbelief := 1.0
			for s := range sources {
				disbelief *= 1 - t.trust[s]
			}
			b := 1 - disbelief
			if t.conflicted(k) {
				b *= 0.5
			}
			belief[k] = b
		}
		// 2. source trust = mean belief of asserted facts (damped).
		sum := make(map[string]float64)
		cnt := make(map[string]int)
		for k, sources := range t.bySources {
			for s := range sources {
				sum[s] += belief[k]
				cnt[s]++
			}
		}
		for s := range t.trust {
			if pin, ok := t.pinned[s]; ok {
				t.trust[s] = pin
				continue
			}
			if cnt[s] == 0 {
				continue
			}
			next := sum[s] / float64(cnt[s])
			t.trust[s] = (1-t.cfg.Damping)*next + t.cfg.Damping*t.trust[s]
		}
	}
}

func (t *refTracker) conflicted(factK string) bool {
	a := refParseKey(factK)
	p, ok := t.ont.Predicate(a.Predicate)
	if !ok || !p.Functional {
		return false
	}
	return len(t.functional[a.Subject+"\x00"+a.Predicate]) > 1
}

func (t *refTracker) Trust(source string) float64 {
	if v, ok := t.trust[source]; ok {
		return v
	}
	return t.cfg.PriorTrust
}

func (t *refTracker) Belief(subject, predicate, object string) float64 {
	k := refFactKey(Assertion{Subject: subject, Predicate: predicate, Object: object})
	sources, ok := t.bySources[k]
	if !ok {
		return 0
	}
	disbelief := 1.0
	for s := range sources {
		disbelief *= 1 - t.trust[s]
	}
	b := 1 - disbelief
	if t.conflicted(k) {
		b *= 0.5
	}
	return b
}

func refFactKey(a Assertion) string {
	return a.Subject + "\x00" + a.Predicate + "\x00" + a.Object
}

func refParseKey(k string) Assertion {
	var a Assertion
	parts := [3]string{}
	idx := 0
	start := 0
	for i := 0; i < len(k) && idx < 2; i++ {
		if k[i] == 0 {
			parts[idx] = k[start:i]
			idx++
			start = i + 1
		}
	}
	parts[2] = k[start:]
	a.Subject, a.Predicate, a.Object = parts[0], parts[1], parts[2]
	return a
}

// Pools the property draws from. Empty names make malformed assertions;
// headquarteredIn, locatedIn and subsidiaryOf are functional in the default
// ontology, and "mentions" is not in it at all.
var (
	propSources    = []string{"", "kb", "wire", "blog", "daily", "forum"}
	propSubjects   = []string{"", "A", "B", "C", "D"}
	propPredicates = []string{"acquired", "partnersWith", "headquarteredIn", "locatedIn", "subsidiaryOf", "mentions", ""}
	propObjects    = []string{"", "A", "B", "C", "E", "F"}
	propPins       = []float64{0, 0.3, 0.5, 0.95, 1, 1.5, -0.2}
)

type trustOp struct {
	kind int // 0 observe, 1 pin, 2 recompute
	a    Assertion
	pin  float64
}

// trustScript is a random configuration and a run of Observe, Pin and
// Recompute calls; small pools make duplicate observations, corroboration
// and functional conflicts common.
type trustScript struct {
	cfg Config
	ops []trustOp
}

func (trustScript) Generate(r *rand.Rand, size int) reflect.Value {
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	s := trustScript{cfg: Config{
		PriorTrust: 0.05 + 0.9*r.Float64(),
		Iterations: r.Intn(16), // 0 selects DefaultConfig
		Damping:    0.9 * r.Float64(),
	}}
	for n := r.Intn(4 * size); len(s.ops) < n; {
		var op trustOp
		switch x := r.Intn(20); {
		case x < 15:
			op.a = Assertion{Source: pick(propSources), Subject: pick(propSubjects), Predicate: pick(propPredicates), Object: pick(propObjects)}
		case x < 17:
			op.kind = 1
			op.a.Source = pick(propSources)
			op.pin = propPins[r.Intn(len(propPins))]
		default:
			op.kind = 2
		}
		s.ops = append(s.ops, op)
	}
	return reflect.ValueOf(s)
}

// closeTo is the kernel's tolerance against the reference: 1e-12 relative.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// TestTrackerMatchesReferenceQuick pins the dense kernel to refTracker:
// after every Recompute and at the end of a script, both know the same
// sources with trust within 1e-12 relative, and give the same Belief to
// every triple over the pools, observed or not.
func TestTrackerMatchesReferenceQuick(t *testing.T) {
	agree := func(got *Tracker, want *refTracker) bool {
		gs := got.Sources()
		if len(gs) != len(want.trust) {
			t.Logf("sources: %d, reference %d", len(gs), len(want.trust))
			return false
		}
		for _, s := range gs {
			w, ok := want.trust[s.Source]
			if !ok || !closeTo(s.Trust, w) || s.Trust != got.Trust(s.Source) {
				t.Logf("trust(%q) = %v, reference %v (known %v)", s.Source, s.Trust, w, ok)
				return false
			}
		}
		for _, sub := range propSubjects {
			for _, p := range propPredicates {
				for _, o := range propObjects {
					g, w := got.Belief(sub, p, o), want.Belief(sub, p, o)
					if !closeTo(g, w) {
						t.Logf("belief(%q %q %q) = %v, reference %v", sub, p, o, g, w)
						return false
					}
				}
			}
		}
		return true
	}
	prop := func(s trustScript) bool {
		got, want := NewTracker(nil, s.cfg), newRefTracker(nil, s.cfg)
		for _, op := range s.ops {
			switch op.kind {
			case 0:
				got.Observe(op.a)
				want.Observe(op.a)
			case 1:
				got.Pin(op.a.Source, op.pin)
				want.Pin(op.a.Source, op.pin)
			case 2:
				got.Recompute()
				want.Recompute()
				if !agree(got, want) {
					return false
				}
			}
		}
		return agree(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerMatchesReferenceOnStream compares the two at scale, where
// thousands of beliefs are summed per source, on BenchmarkRecompute's
// kind of stream, recomputing every 200 assertions as ingestion does.
func TestTrackerMatchesReferenceOnStream(t *testing.T) {
	got, want := NewTracker(nil, DefaultConfig()), newRefTracker(nil, DefaultConfig())
	got.Pin("src00", 0.95)
	want.Pin("src00", 0.95)
	for i, a := range synthetic(3000, 7) {
		got.Observe(a)
		want.Observe(a)
		if (i+1)%200 == 0 {
			got.Recompute()
			want.Recompute()
		}
	}
	if len(got.Sources()) != len(want.trust) {
		t.Fatalf("sources: %d, reference %d", len(got.Sources()), len(want.trust))
	}
	for s, w := range want.trust {
		if g := got.Trust(s); !closeTo(g, w) {
			t.Fatalf("trust(%s) = %v, reference %v", s, g, w)
		}
	}
}
