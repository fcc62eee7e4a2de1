package qa

import (
	"reflect"
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/temporal"
)

// buildWindowedExecutor is buildExecutor with the KG's temporal index
// attached — the configuration where the optimizer's window statistics,
// trend-scan skipping and the plan-result cache are all live.
func buildWindowedExecutor(t *testing.T) *Executor {
	t.Helper()
	ex := buildExecutor(t)
	ex.TIndex = ex.KG.TemporalIndex()
	return ex
}

// optimizerQuestions extends the legacy reference matrix with the planner's
// own classes: temporal diffs (always cacheable) and bounded trending
// (cacheable through the backfill path), plus windows the histogram proves
// empty (the TrendScan skip rewrite) and diffs whose two windows differ in
// size (the Diff reorder rewrite).
var optimizerQuestions = []string{
	"What changed about DJI between 2015 and 2016?",
	"What changed about Windermere between 2014 and 2015?",
	"What changed between 2014 and 2016?",
	"What changed about DJI between 2010 and 2011?", // both windows empty
	"How did GoPro change between 2015 and 2016?",
	"What was trending in 2015?",
	"What was trending in 2011?", // histogram-provably empty window
	"What was trending last week?",
	"Tell me about DJI in 2014",
	"Tell me about Windermere in 2015",
	"What does DJI manufacture since 2015?",
	"Did GoPro acquire Aeros Labs in 2014?",
	"How is Windermere related to DJI in 2015?",
}

// TestOptimizedPlansByteIdenticalToReference is the perf work's acceptance
// reference: for every question, the optimized plan — and, on the second
// run, the plan cache — must produce answers byte-identical to the
// unoptimized reference plan executed directly, with no cache in between.
func TestOptimizedPlansByteIdenticalToReference(t *testing.T) {
	ex := buildWindowedExecutor(t)
	now := ex.Now()

	corpus := append(append([]string{}, referenceQuestions...), optimizerQuestions...)
	for _, question := range corpus {
		q, err := ParseAt(question, now)
		if err != nil {
			t.Fatalf("ParseAt(%q): %v", question, err)
		}
		p, err := Lower(q)
		if err != nil {
			t.Fatalf("Lower(%q): %v", question, err)
		}
		// Reference: the unoptimized plan, executed directly.
		want, err := ex.planner().Run(p)
		if err != nil {
			t.Fatalf("reference %q: %v", question, err)
		}
		// Production: optimized, and cached when eligible. Run twice — the
		// second run of a cacheable question is served from the plan cache.
		for pass := 1; pass <= 2; pass++ {
			got, err := ex.runPlan(p)
			if err != nil {
				t.Fatalf("optimized %q (pass %d): %v", question, pass, err)
			}
			if want.Text != got.Text {
				t.Fatalf("%q (pass %d) text diverges:\nreference:\n%q\noptimized:\n%q", question, pass, want.Text, got.Text)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%q (pass %d) structured answer diverges:\nreference: %+v\noptimized: %+v", question, pass, want, got)
			}
		}
	}

	st := ex.PlanStats()
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
		recomputed func(t *testing.T, stale, fresh Answer)
	}{
		{"diff", "What changed about DJI between 2015 and 2016?", func(t *testing.T, stale, fresh Answer) {
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
			ex := buildWindowedExecutor(t)
			ask := func() Answer {
				t.Helper()
				a, err := ex.Ask(tc.question)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			first := ask()
			base := ex.PlanStats().Cache
			if base == nil || base.Misses == 0 {
				t.Fatalf("first ask did not populate the cache: %+v", base)
			}
			second := ask()
			st := ex.PlanStats().Cache
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
			third := ask()
			st2 := ex.PlanStats().Cache
			if st2.Misses != st.Misses+1 {
				t.Fatalf("ask after mutation: misses %d -> %d, want +1 (stale entry served?)", st.Misses, st2.Misses)
			}
			if tc.recomputed != nil {
				tc.recomputed(t, second, third)
			}
		})
	}
}

// TestExplainQueryReportsRowsAndCacheState pins the executed-explain
// contract behind /api/v1/plan: a cold explain carries actual_rows and warms
// the cache; a second explain of the same question reports Cached with no
// actual_rows (nothing executed).
func TestExplainQueryReportsRowsAndCacheState(t *testing.T) {
	ex := buildWindowedExecutor(t)
	const question = "What changed about DJI between 2015 and 2016?"

	cold, err := ex.ExplainQuery(question, temporal.All())
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Cacheable || cold.Cached {
		t.Fatalf("cold explain: cacheable=%v cached=%v, want true/false", cold.Cacheable, cold.Cached)
	}
	if cold.Trace == nil {
		t.Fatal("cold explain carries no trace")
	}
	desc := cold.Describe()
	if desc.EstRows == nil || desc.ActualRows == nil {
		t.Fatalf("cold explain root missing rows: est=%v actual=%v", desc.EstRows, desc.ActualRows)
	}

	warm, err := ex.ExplainQuery(question, temporal.All())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second explain did not observe the warmed cache")
	}
	if warm.Trace != nil {
		t.Fatal("cached explain executed anyway (non-nil trace)")
	}
	wdesc := warm.Describe()
	if wdesc.ActualRows != nil {
		t.Fatal("cached explain reports actual_rows")
	}
	if wdesc.EstRows == nil {
		t.Fatal("cached explain lost est_rows")
	}

	// The explain warmed the cache: the real query is now a hit.
	before := ex.PlanStats().Cache.Hits
	if _, err := ex.Ask(question); err != nil {
		t.Fatal(err)
	}
	if after := ex.PlanStats().Cache.Hits; after != before+1 {
		t.Fatalf("ask after explain: hits %d -> %d, want +1", before, after)
	}

	// Non-cacheable classes still explain with actual rows.
	ent, err := ex.ExplainQuery("Tell me about DJI", temporal.All())
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
