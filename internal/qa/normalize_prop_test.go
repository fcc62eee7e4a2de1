package qa

import (
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/plan"
	"nous/internal/temporal"
)

// FuzzNormalizeDeterministic is the cache-key soundness property: parsing
// and lowering the same question twice at the same clock must yield
// byte-identical normalized plan strings — whatever the question, including
// garbage that happens to parse. A nondeterministic key would split cache
// entries at best and, combined with a collision, alias answers at worst.
func FuzzNormalizeDeterministic(f *testing.F) {
	seeds := []string{
		"What is trending?",
		"What was trending in 2015?",
		"What was trending last week?",
		"Tell me about DJI",
		"Tell me about DJI between 2014 and 2016",
		"How is Windermere related to DJI via acquired?",
		"What patterns are emerging?",
		"Did Amazon acquire Aeros in 2015?",
		"What does DJI manufacture since 2015?",
		"Who acquired Aeros Labs?",
		"What changed about DJI between 2015 and 2016?",
		"What changed between 2015-01-01 and 2015-06-01?",
		"How did DJI change between 2014 and 2016?",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	now := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, question string) {
		lower := func() (string, bool) {
			p, err := CompileAt(question, now, temporal.All())
			if err != nil {
				return "", false
			}
			return plan.Normalize(p), true
		}
		a, ok1 := lower()
		b, ok2 := lower()
		if ok1 != ok2 {
			t.Fatalf("CompileAt(%q) nondeterministic success", question)
		}
		if a != b {
			t.Fatalf("Normalize(%q) nondeterministic:\n%s\n%s", question, a, b)
		}
	})
}

// TestCacheKeyEpochComponent pins the other half of the cache key: equal
// questions at equal epochs share the full (epoch, normalized plan) key,
// and a graph mutation changes the epoch component while leaving the
// normalized string untouched — invalidation comes entirely from the epoch.
func TestCacheKeyEpochComponent(t *testing.T) {
	ex := buildExecutor(t)
	const question = "What changed about DJI between 2015 and 2016?"

	key := func() (uint64, string) {
		t.Helper()
		p, err := CompileAt(question, ex.Now(), temporal.All())
		if err != nil {
			t.Fatal(err)
		}
		return ex.KG.Graph().Epoch(), plan.Normalize(p)
	}

	e1, k1 := key()
	e2, k2 := key()
	if e1 != e2 || k1 != k2 {
		t.Fatalf("equal question at unchanged epoch produced different keys: (%d,%q) vs (%d,%q)", e1, k1, e2, k2)
	}

	if _, err := ex.KG.AddFact(core.Triple{
		Subject: "DJI", Predicate: "manufactures", Object: "Inspire 1", Confidence: 0.9,
		Provenance: core.Provenance{Source: "wsj", Time: time.Date(2015, 8, 1, 0, 0, 0, 0, time.UTC)},
	}); err != nil {
		t.Fatal(err)
	}

	e3, k3 := key()
	if e3 == e1 {
		t.Fatal("graph mutation did not advance the epoch component")
	}
	if k3 != k1 {
		t.Fatalf("mutation changed the normalized string:\n%q\n%q", k1, k3)
	}
}
