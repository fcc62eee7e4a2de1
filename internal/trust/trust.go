// Package trust implements the source-level trust tracking §3.4 mentions
// alongside link prediction: every data source carries a trust score that
// rises when its facts are corroborated (re-asserted by other sources or
// already present in the curated KB) and falls when they are contradicted
// (a functional predicate already binds the subject to a different object).
// The fixpoint iteration is a small TruthFinder-style mutual recursion:
// fact belief is a trust-weighted vote of its asserting sources; source
// trust is the mean belief of its asserted facts.
package trust

import (
	"math"
	"slices"
	"sort"

	"nous/internal/ontology"
)

// Assertion is one (source, triple) observation.
type Assertion struct {
	Source    string
	Subject   string
	Predicate string
	Object    string
}

// Config is empty: the fixpoint's parameters are the constants below.
type Config struct{}

// DefaultConfig returns the empty Config.
func DefaultConfig() Config { return Config{} }

// The fixpoint's parameters. An unseen source starts at priorTrust, neither
// trusted nor distrusted; curated sources are pinned instead (Pin). Each
// Recompute runs iterations passes, and damping keeps that share of a
// source's previous trust in each pass. Every tracker uses these values;
// tests vary them through Tracker.params.
const (
	priorTrust = 0.5
	iterations = 10
	damping    = 0.3
)

// params are a tracker's fixpoint parameters.
type params struct {
	prior      float64
	iterations int
	damping    float64
}

// Tracker maintains source trust scores from streamed assertions. Sources
// and facts are interned to dense ids in first-seen order when observed, so
// Recompute is a few linear passes over slices that sum and multiply in a
// fixed order: equal observation streams give bit-equal trust.
//
// A Tracker is not safe for concurrent use; callers synchronize.
type Tracker struct {
	params
	ont *ontology.Ontology

	// Sources by id.
	srcID  map[string]int32
	names  []string
	trust  []float64
	pinned []bool
	nfacts []int32 // distinct facts the source asserts

	// Facts by id.
	factID  map[factKey]int32
	sources [][]int32 // asserting sources, first-seen order
	group   []int32   // functional (subject, predicate) group, or -1

	// Functional (subject, predicate) groups by id. Facts are distinct
	// triples, so a group's fact count is its count of distinct objects.
	groupID  map[[2]string]int32
	distinct []int32

	sum []float64 // Recompute scratch: belief sum per source
}

type factKey struct{ subject, predicate, object string }

// NewTracker returns an empty tracker. A nil ontology gets the default
// (the ontology supplies which predicates are functional).
func NewTracker(ont *ontology.Ontology, _ Config) *Tracker {
	if ont == nil {
		ont = ontology.Default()
	}
	return &Tracker{
		params:  params{prior: priorTrust, iterations: iterations, damping: damping},
		ont:     ont,
		srcID:   make(map[string]int32),
		factID:  make(map[factKey]int32),
		groupID: make(map[[2]string]int32),
	}
}

// Pin fixes a source's trust (e.g. the curated KB at 1.0); pinned sources
// anchor the fixpoint.
func (t *Tracker) Pin(source string, trust float64) {
	s := t.source(source)
	t.pinned[s] = true
	t.trust[s] = clamp01(trust)
}

// Observe records one assertion. Whether its predicate is functional is
// read from the ontology when the triple is first observed.
func (t *Tracker) Observe(a Assertion) {
	if a.Source == "" || a.Subject == "" || a.Object == "" {
		return
	}
	s := t.source(a.Source)
	k := factKey{a.Subject, a.Predicate, a.Object}
	f, ok := t.factID[k]
	if !ok {
		f = int32(len(t.sources))
		t.factID[k] = f
		t.sources = append(t.sources, nil)
		t.group = append(t.group, t.groupOf(a))
	}
	// A fact's sources are few (one per outlet reporting it), so a scan
	// beats a set.
	if slices.Contains(t.sources[f], s) {
		return
	}
	t.sources[f] = append(t.sources[f], s)
	t.nfacts[s]++
}

// source returns the id of a source, interning it at the prior trust.
func (t *Tracker) source(name string) int32 {
	if s, ok := t.srcID[name]; ok {
		return s
	}
	s := int32(len(t.names))
	t.srcID[name] = s
	t.names = append(t.names, name)
	t.trust = append(t.trust, t.prior)
	t.pinned = append(t.pinned, false)
	t.nfacts = append(t.nfacts, 0)
	return s
}

// groupOf returns the functional group of a newly observed triple and
// counts the triple's object in it, or -1 when the predicate is not
// functional.
func (t *Tracker) groupOf(a Assertion) int32 {
	if p, ok := t.ont.Predicate(a.Predicate); !ok || !p.Functional {
		return -1
	}
	k := [2]string{a.Subject, a.Predicate}
	g, ok := t.groupID[k]
	if !ok {
		g = int32(len(t.distinct))
		t.groupID[k] = g
		t.distinct = append(t.distinct, 0)
	}
	t.distinct[g]++
	return g
}

// Recompute runs the trust/belief fixpoint over everything observed so far.
// Each pass computes every fact's belief from the previous pass's trust,
// then moves each unpinned source's trust toward its mean belief.
func (t *Tracker) Recompute() {
	if cap(t.sum) < len(t.trust) {
		t.sum = make([]float64, len(t.trust))
	}
	sum := t.sum[:len(t.trust)]
	for it := 0; it < t.iterations; it++ {
		clear(sum)
		for f, srcs := range t.sources {
			b := t.belief(int32(f))
			for _, s := range srcs {
				sum[s] += b
			}
		}
		for s, n := range t.nfacts {
			if t.pinned[s] || n == 0 {
				continue
			}
			next := sum[s] / float64(n)
			t.trust[s] = (1-t.damping)*next + t.damping*t.trust[s]
		}
	}
}

// belief is 1 - Π (1 - trust(s)) over the fact's asserting sources, halved
// when the fact's functional (subject, predicate) binds several objects.
func (t *Tracker) belief(f int32) float64 {
	disbelief := 1.0
	for _, s := range t.sources[f] {
		disbelief *= 1 - t.trust[s]
	}
	b := 1 - disbelief
	if g := t.group[f]; g >= 0 && t.distinct[g] > 1 {
		b *= 0.5
	}
	return b
}

// Trust returns a source's current trust (the prior trust when unseen).
func (t *Tracker) Trust(source string) float64 {
	if s, ok := t.srcID[source]; ok {
		return t.trust[s]
	}
	return t.prior
}

// Belief returns the current belief in a triple given the sources that
// asserted it (after the last Recompute's trust values), or 0 when no
// source asserted it.
func (t *Tracker) Belief(subject, predicate, object string) float64 {
	f, ok := t.factID[factKey{subject, predicate, object}]
	if !ok {
		return 0
	}
	return t.belief(f)
}

// Sources returns all known sources with their trust, sorted by descending
// trust then name.
func (t *Tracker) Sources() []SourceTrust {
	out := make([]SourceTrust, len(t.names))
	for s, name := range t.names {
		out[s] = SourceTrust{Source: name, Trust: t.trust[s]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Trust != out[j].Trust {
			return out[i].Trust > out[j].Trust
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// SourceTrust pairs a source with its trust score.
type SourceTrust struct {
	Source string
	Trust  float64
}

func clamp01(x float64) float64 {
	return math.Max(0, math.Min(1, x))
}
