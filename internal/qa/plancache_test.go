package qa

import (
	"reflect"
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/plan"
	"nous/internal/temporal"
)

// cacheQuestions extends the legacy reference matrix with the planner's own
// classes: temporal diffs (always cacheable) and bounded trending (cacheable
// through the backfill path), including windows that hold no dated fact.
var cacheQuestions = []string{
	"What changed about DJI between 2015 and 2016?",
	"What changed about Windermere between 2014 and 2015?",
	"What changed between 2014 and 2016?",
	"What changed about DJI between 2010 and 2011?", // both windows empty
	"How did GoPro change between 2015 and 2016?",
	"What was trending in 2015?",
	"What was trending in 2011?", // no dated fact in the window
	"What was trending last week?",
	"Tell me about DJI in 2014",
	"Tell me about Windermere in 2015",
	"What does DJI manufacture since 2015?",
	"Did GoPro acquire Aeros Labs in 2014?",
	"How is Windermere related to DJI in 2015?",
}

// TestCachedPlansByteIdenticalToDirectRun pins the plan-result cache's
// contract: for every question, what Run serves — computed on the first
// pass, and from the cache on the second pass of a cacheable question — is
// byte-identical to the plan executed directly by a fresh executor over the
// same dependencies, whose cache holds nothing yet.
func TestCachedPlansByteIdenticalToDirectRun(t *testing.T) {
	ex := buildExecutor(t)

	corpus := append(append([]string{}, referenceQuestions...), cacheQuestions...)
	for _, question := range corpus {
		p, err := CompileAt(question, ex.Now(), temporal.All())
		if err != nil {
			t.Fatalf("CompileAt(%q): %v", question, err)
		}
		want, err := plan.NewExecutor(ex.Deps).Run(p)
		if err != nil {
			t.Fatalf("direct %q: %v", question, err)
		}
		for pass := 1; pass <= 2; pass++ {
			got, err := ex.Run(p)
			if err != nil {
				t.Fatalf("served %q (pass %d): %v", question, pass, err)
			}
			if want.Text != got.Text {
				t.Fatalf("%q (pass %d) text diverges:\ndirect:\n%q\nserved:\n%q", question, pass, want.Text, got.Text)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%q (pass %d) structured answer diverges:\ndirect: %+v\nserved: %+v", question, pass, want, got)
			}
		}
	}

	st := ex.Stats()
	if st.Cache == nil {
		t.Fatal("PlanStats.Cache not populated")
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("no plan-cache hits across the corpus: %+v", *st.Cache)
	}
	if st.Cache.Entries == 0 {
		t.Fatalf("no plan-cache entries after cacheable questions: %+v", *st.Cache)
	}
}

// TestPlanCacheHitAndEpochInvalidation pins the cache's contract end to end
// for both cacheable classes: a repeat at an unchanged epoch is served from
// the cache, and a graph mutation (which advances the epoch) invalidates the
// entry; a mutation inside a diff's window also shows up in its next answer.
func TestPlanCacheHitAndEpochInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name, question string
		// recomputed checks that the post-mutation answer shows the new fact;
		// nil where one fact need not move the answer (a trend ranking).
		recomputed func(t *testing.T, stale, fresh plan.Result)
	}{
		{"diff", "What changed about DJI between 2015 and 2016?", func(t *testing.T, stale, fresh plan.Result) {
			if reflect.DeepEqual(stale, fresh) {
				t.Fatal("answer unchanged after a mutation inside the diff window")
			}
			if fresh.Diff == nil || len(fresh.Diff.Removed) == 0 {
				t.Fatalf("recomputed diff missing the new 2015-only fact: %+v", fresh.Diff)
			}
		}},
		{"bounded trending", "What was trending in 2015?", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex := buildExecutor(t)
			askOnce := func() plan.Result {
				t.Helper()
				a, err := ask(ex, tc.question)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			first := askOnce()
			base := ex.Stats().Cache
			if base == nil || base.Misses == 0 {
				t.Fatalf("first ask did not populate the cache: %+v", base)
			}
			second := askOnce()
			st := ex.Stats().Cache
			if st.Hits != base.Hits+1 {
				t.Fatalf("repeat at unchanged epoch: hits %d -> %d, want +1", base.Hits, st.Hits)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatal("cached answer diverges from computed answer")
			}

			// Mutate inside the question's window: the epoch advances and the
			// cached entry goes stale.
			if _, err := ex.KG.AddFact(core.Triple{
				Subject: "DJI", Predicate: "acquired", Object: "Aeros Labs", Confidence: 0.9,
				Provenance: core.Provenance{Source: "wsj", Time: time.Date(2015, 7, 1, 0, 0, 0, 0, time.UTC)},
			}); err != nil {
				t.Fatal(err)
			}
			third := askOnce()
			st2 := ex.Stats().Cache
			if st2.Misses != st.Misses+1 {
				t.Fatalf("ask after mutation: misses %d -> %d, want +1 (stale entry served?)", st.Misses, st2.Misses)
			}
			if tc.recomputed != nil {
				tc.recomputed(t, second, third)
			}
		})
	}
}

// explain compiles a question at the executor's clock and explains it.
func explain(ex *plan.Executor, question string) (*plan.Report, error) {
	p, err := CompileAt(question, ex.Now(), temporal.All())
	if err != nil {
		return nil, err
	}
	return ex.Explain(p)
}

// TestExplainQueryReportsRowsAndCacheState pins the executed-explain
// contract behind /api/v1/plan: a cold explain carries actual_rows and warms
// the cache; a second explain of the same question reports Cached with no
// actual_rows (nothing executed).
func TestExplainQueryReportsRowsAndCacheState(t *testing.T) {
	ex := buildExecutor(t)
	const question = "What changed about DJI between 2015 and 2016?"

	cold, err := explain(ex, question)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Cacheable || cold.Cached {
		t.Fatalf("cold explain: cacheable=%v cached=%v, want true/false", cold.Cacheable, cold.Cached)
	}
	if cold.Trace == nil {
		t.Fatal("cold explain carries no trace")
	}
	if desc := cold.Describe(); desc.ActualRows == nil {
		t.Fatal("cold explain root missing actual_rows")
	}

	warm, err := explain(ex, question)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second explain did not observe the warmed cache")
	}
	if warm.Trace != nil {
		t.Fatal("cached explain executed anyway (non-nil trace)")
	}
	if wdesc := warm.Describe(); wdesc.ActualRows != nil {
		t.Fatal("cached explain reports actual_rows")
	}

	// The explain warmed the cache: the real query is now a hit.
	before := ex.Stats().Cache.Hits
	if _, err := ask(ex, question); err != nil {
		t.Fatal(err)
	}
	if after := ex.Stats().Cache.Hits; after != before+1 {
		t.Fatalf("ask after explain: hits %d -> %d, want +1", before, after)
	}

	// Non-cacheable classes still explain with actual rows.
	ent, err := explain(ex, "Tell me about DJI")
	if err != nil {
		t.Fatal(err)
	}
	if ent.Cacheable || ent.Cached {
		t.Fatalf("entity explain: cacheable=%v cached=%v, want false/false", ent.Cacheable, ent.Cached)
	}
	if ent.Trace == nil {
		t.Fatal("entity explain carries no trace")
	}
}
