package trust

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestCorroborationRaisesTrust(t *testing.T) {
	tr := NewTracker(nil, DefaultConfig())
	tr.Pin("curated-kb", 1.0)

	// goodwire re-asserts curated facts; tabloid asserts unseen ones alone.
	for i := 0; i < 10; i++ {
		fact := Assertion{Subject: fmt.Sprintf("C%d", i), Predicate: "acquired", Object: fmt.Sprintf("D%d", i)}
		fact.Source = "curated-kb"
		tr.Observe(fact)
		fact.Source = "goodwire"
		tr.Observe(fact)
		tr.Observe(Assertion{Source: "tabloid", Subject: fmt.Sprintf("X%d", i), Predicate: "acquired", Object: fmt.Sprintf("Y%d", i)})
	}
	tr.Recompute()
	if tr.Trust("goodwire") <= tr.Trust("tabloid") {
		t.Fatalf("corroborated source not more trusted: goodwire=%.3f tabloid=%.3f",
			tr.Trust("goodwire"), tr.Trust("tabloid"))
	}
	if got := tr.Trust("curated-kb"); got != 1.0 {
		t.Fatalf("pinned trust drifted: %v", got)
	}
}

func TestFunctionalConflictLowersTrust(t *testing.T) {
	tr := NewTracker(nil, DefaultConfig())
	tr.Pin("curated-kb", 1.0)
	// Curated: DJI headquartered in Shenzhen. The conflicting source says
	// Paris; a clean source repeats curated facts.
	tr.Observe(Assertion{Source: "curated-kb", Subject: "DJI", Predicate: "headquarteredIn", Object: "Shenzhen"})
	for i := 0; i < 5; i++ {
		tr.Observe(Assertion{Source: "clean", Subject: "DJI", Predicate: "headquarteredIn", Object: "Shenzhen"})
		tr.Observe(Assertion{Source: "conflicting", Subject: "DJI", Predicate: "headquarteredIn", Object: "Paris"})
	}
	tr.Recompute()
	if tr.Trust("conflicting") >= tr.Trust("clean") {
		t.Fatalf("conflicting source not penalized: clean=%.3f conflicting=%.3f",
			tr.Trust("clean"), tr.Trust("conflicting"))
	}
}

func TestBeliefReflectsSources(t *testing.T) {
	tr := NewTracker(nil, DefaultConfig())
	tr.Pin("curated-kb", 0.95)
	tr.Observe(Assertion{Source: "curated-kb", Subject: "A", Predicate: "acquired", Object: "B"})
	tr.Observe(Assertion{Source: "random-blog", Subject: "C", Predicate: "acquired", Object: "D"})
	tr.Recompute()
	strong := tr.Belief("A", "acquired", "B")
	weak := tr.Belief("C", "acquired", "D")
	if strong <= weak {
		t.Fatalf("belief ordering wrong: strong=%.3f weak=%.3f", strong, weak)
	}
	if got := tr.Belief("X", "acquired", "Y"); got != 0 {
		t.Fatalf("belief in unasserted fact = %v", got)
	}
}

func TestMultipleIndependentSourcesIncreaseBelief(t *testing.T) {
	tr := NewTracker(nil, DefaultConfig())
	tr.Observe(Assertion{Source: "s1", Subject: "A", Predicate: "acquired", Object: "B"})
	tr.Recompute()
	one := tr.Belief("A", "acquired", "B")
	tr.Observe(Assertion{Source: "s2", Subject: "A", Predicate: "acquired", Object: "B"})
	tr.Observe(Assertion{Source: "s3", Subject: "A", Predicate: "acquired", Object: "B"})
	tr.Recompute()
	many := tr.Belief("A", "acquired", "B")
	if many <= one {
		t.Fatalf("corroboration did not raise belief: %v -> %v", one, many)
	}
}

func TestUnknownSourceGetsPrior(t *testing.T) {
	tr := NewTracker(nil, DefaultConfig())
	if got := tr.Trust("nobody"); got != 0.5 {
		t.Fatalf("unknown source trust = %v", got)
	}
}

func TestMalformedAssertionsIgnored(t *testing.T) {
	tr := NewTracker(nil, DefaultConfig())
	tr.Observe(Assertion{Source: "", Subject: "A", Predicate: "p", Object: "B"})
	tr.Observe(Assertion{Source: "s", Subject: "", Predicate: "p", Object: "B"})
	tr.Observe(Assertion{Source: "s", Subject: "A", Predicate: "p", Object: ""})
	tr.Recompute()
	if got := tr.Sources(); len(got) != 0 {
		t.Fatalf("malformed assertions tracked: %v", got)
	}
}

func TestSourcesSorted(t *testing.T) {
	tr := NewTracker(nil, DefaultConfig())
	tr.Pin("a", 0.9)
	tr.Pin("b", 0.2)
	tr.Pin("c", 0.9)
	ss := tr.Sources()
	if len(ss) != 3 || ss[0].Source != "a" || ss[1].Source != "c" || ss[2].Source != "b" {
		t.Fatalf("sources = %+v", ss)
	}
}

func TestTrustStaysInUnitInterval(t *testing.T) {
	tr := NewTracker(nil, DefaultConfig())
	tr.Pin("kb", 1.0)
	for i := 0; i < 50; i++ {
		tr.Observe(Assertion{Source: "kb", Subject: fmt.Sprintf("S%d", i), Predicate: "acquired", Object: "T"})
		tr.Observe(Assertion{Source: "echo", Subject: fmt.Sprintf("S%d", i), Predicate: "acquired", Object: "T"})
	}
	tr.Recompute()
	for _, s := range tr.Sources() {
		if s.Trust < 0 || s.Trust > 1 {
			t.Fatalf("trust(%s) = %v out of [0,1]", s.Source, s.Trust)
		}
	}
}

// synthetic returns a shuffled stream asserting exactly facts distinct
// triples, each by one to three of twelve sources (a source may repeat
// itself). Four triples share each subject and objects never repeat, so a
// functional predicate drawn twice for one subject is a conflict.
func synthetic(facts int, seed int64) []Assertion {
	preds := []string{"acquired", "partnersWith", "headquarteredIn", "subsidiaryOf", "manufactures"}
	r := rand.New(rand.NewSource(seed))
	var out []Assertion
	for i := 0; i < facts; i++ {
		a := Assertion{
			Subject:   fmt.Sprintf("E%d", i/4),
			Predicate: preds[r.Intn(len(preds))],
			Object:    fmt.Sprintf("O%d-%d", r.Intn(3), i),
		}
		for n := 1 + r.Intn(3); n > 0; n-- {
			a.Source = fmt.Sprintf("src%02d", r.Intn(12))
			out = append(out, a)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func fed(stream []Assertion) *Tracker {
	tr := NewTracker(nil, DefaultConfig())
	tr.Pin("src00", 0.95)
	for _, a := range stream {
		tr.Observe(a)
	}
	return tr
}

// TestEqualStreamsGiveBitEqualTrust: twenty fresh trackers fed one
// ≈ 3,000-assertion stream, recomputing on the ingest cadence, report
// bitwise-equal trust.
func TestEqualStreamsGiveBitEqualTrust(t *testing.T) {
	stream := synthetic(1500, 1)
	run := func() []SourceTrust {
		tr := NewTracker(nil, DefaultConfig())
		tr.Pin("src00", 0.95)
		for i, a := range stream {
			tr.Observe(a)
			if (i+1)%200 == 0 {
				tr.Recompute()
			}
		}
		tr.Recompute()
		return tr.Sources()
	}
	want := run()
	for i := 1; i < 20; i++ {
		got := run()
		for j := range want {
			if got[j].Source != want[j].Source || math.Float64bits(got[j].Trust) != math.Float64bits(want[j].Trust) {
				t.Fatalf("rebuild %d: source %d = %s %v, first build %s %v", i, j, got[j].Source, got[j].Trust, want[j].Source, want[j].Trust)
			}
		}
	}
}

// TestRecomputeAllocs: Recompute reuses its scratch buffer, so what it
// allocates does not grow with the facts observed.
func TestRecomputeAllocs(t *testing.T) {
	var allocs [2]float64
	for i, facts := range []int{1000, 10000} {
		tr := fed(synthetic(facts, 1))
		allocs[i] = testing.AllocsPerRun(5, tr.Recompute)
	}
	if allocs[0] != allocs[1] || allocs[1] > 1 {
		t.Fatalf("Recompute allocations at 1k / 10k facts = %v / %v, want equal and at most 1", allocs[0], allocs[1])
	}
}

// BenchmarkRecompute runs the fixpoint over ≈ 7,000 facts, the size of
// the restart benchmark's data directory.
func BenchmarkRecompute(b *testing.B) {
	tr := fed(synthetic(7000, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Recompute()
	}
}
