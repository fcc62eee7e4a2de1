package plan

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nous/internal/analytics"
	"nous/internal/core"
	"nous/internal/disambig"
	"nous/internal/fgm"
	"nous/internal/linkpred"
	"nous/internal/pathsearch"
	"nous/internal/temporal"
	"nous/internal/trends"
)

func day(n int) time.Time {
	return time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func window(a, b int) temporal.Window {
	return temporal.Between(day(a), day(b))
}

// buildExecutor wires a small KG and every executor dependency over it.
func buildExecutor(t *testing.T) *Executor {
	t.Helper()
	kg := core.NewKG(nil)
	tab := trends.Track(kg, trends.DefaultConfig())
	triples := []core.Triple{
		{Subject: "DJI", Predicate: "manufactures", Object: "Phantom 3", Confidence: 1, Curated: true, Provenance: core.Provenance{Source: "kb"}},
	}
	// Weeks 0..2: quiet baseline for DJI; week 3: a burst.
	for wk := 0; wk < 3; wk++ {
		triples = append(triples, core.Triple{
			Subject: "DJI", Predicate: "acquired", Object: "Tiny Co", Confidence: 0.7,
			Provenance: core.Provenance{Source: "wsj", Time: day(wk * 7)},
		})
	}
	for i := 0; i < 4; i++ {
		triples = append(triples, core.Triple{
			Subject: "DJI", Predicate: "acquired", Object: "Aeros", Confidence: 0.8,
			Provenance: core.Provenance{Source: "wsj", Time: day(21)},
		})
	}
	// Week 6: a different entity so the post-burst stream is not empty.
	triples = append(triples, core.Triple{
		Subject: "GoPro", Predicate: "acquired", Object: "Karma", Confidence: 0.9,
		Provenance: core.Provenance{Source: "wsj", Time: day(42)},
	})
	for _, tr := range triples {
		if _, err := kg.AddFact(tr); err != nil {
			t.Fatal(err)
		}
	}
	ac := analytics.New(kg)
	return NewExecutor(Deps{
		KG:        kg,
		Trends:    tab,
		Miner:     fgm.NewMiner(fgm.DefaultConfig()),
		Searcher:  pathsearch.New(kg.Graph(), nil),
		Model:     linkpred.Train(nil, linkpred.DefaultConfig()),
		Linker:    disambig.NewLinker(kg, ac),
		Analytics: ac,
		TIndex:    kg.TemporalIndex(),
		Now:       func() time.Time { return day(49) },
	})
}

func TestTrendScanBackfillFindsMidWindowBurst(t *testing.T) {
	ex := buildExecutor(t)
	// Window covering weeks 2..5: the week-3 burst is inside but is NOT the
	// end bucket. Live trending anchored at the window's end would see a
	// quiet bucket; backfill must surface the burst.
	p := TrendingPlan(window(14, 42), 10)
	r, err := ex.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var dji *trends.Trend
	for i := range r.Trends {
		if r.Trends[i].Name == "DJI" {
			dji = &r.Trends[i]
		}
	}
	if dji == nil || dji.Current != 4 {
		t.Fatalf("backfill missed the mid-window burst: %+v", r.Trends)
	}
	if !strings.Contains(r.Text, "windowed backfill") {
		t.Fatalf("backfill text missing marker:\n%s", r.Text)
	}
}

func TestTrendScanUnboundedStaysLive(t *testing.T) {
	ex := buildExecutor(t)
	r, err := ex.Run(TrendingPlan(temporal.All(), 10))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Text, "Trending now:") {
		t.Fatalf("unbounded trending must be live trending:\n%s", r.Text)
	}
}

func TestStreamDiffOffTemporalIndex(t *testing.T) {
	ex := buildExecutor(t)
	// Week 3 (the burst) vs week 6 (GoPro): everything swaps.
	r, err := ex.Run(DiffPlan("", window(21, 28), window(42, 49)))
	if err != nil {
		t.Fatal(err)
	}
	d := r.Diff
	if d == nil {
		t.Fatalf("no diff payload:\n%s", r.Text)
	}
	if len(d.Added) != 1 || d.Added[0].Subject != "GoPro" {
		t.Fatalf("added = %+v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0].Object != "Aeros" {
		t.Fatalf("removed = %+v (repeated mentions must dedup)", d.Removed)
	}
	if d.Unchanged != 0 {
		t.Fatalf("unchanged = %d", d.Unchanged)
	}
}

func TestStreamDiffUnboundedBelowExcludesCurated(t *testing.T) {
	ex := buildExecutor(t)
	// The "what is new since D" shape: window A is unbounded below and so
	// covers the timeless sentinel timestamp curated edges carry. Curated
	// knowledge is visible in every window and must never surface as a
	// removed change just because only one side of the diff spans its
	// timestamp.
	r, err := ex.Run(DiffPlan("", temporal.UntilTime(day(42)), temporal.SinceTime(day(42))))
	if err != nil {
		t.Fatal(err)
	}
	d := r.Diff
	if d == nil {
		t.Fatalf("no diff payload:\n%s", r.Text)
	}
	if len(d.Added) != 1 || d.Added[0].Subject != "GoPro" {
		t.Fatalf("added = %+v", d.Added)
	}
	for _, f := range append(append([]core.Fact{}, d.Added...), d.Removed...) {
		if f.Curated {
			t.Fatalf("curated fact reported as change: %+v", f)
		}
	}
}

func TestEntityDiffExcludesUndatedExtracted(t *testing.T) {
	ex := buildExecutor(t)
	// An undated extracted fact cannot be attributed to either window; the
	// entity-scoped diff must drop it like the whole-stream side's DatedIn
	// does, not claim it for the unbounded-below window and report it
	// removed.
	if _, err := ex.KG.AddFact(core.Triple{
		Subject: "DJI", Predicate: "acquired", Object: "NoDate Co", Confidence: 0.6,
		Provenance: core.Provenance{Source: "wsj"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := ex.Run(DiffPlan("DJI", temporal.UntilTime(day(21)), temporal.SinceTime(day(21))))
	if err != nil {
		t.Fatal(err)
	}
	d := r.Diff
	if d == nil {
		t.Fatalf("no diff payload:\n%s", r.Text)
	}
	for _, f := range append(append([]core.Fact{}, d.Added...), d.Removed...) {
		if f.Object == "NoDate Co" {
			t.Fatalf("undated extracted fact reported as change: %+v", f)
		}
	}
}

func TestEntityDiffCuratedCancelsOut(t *testing.T) {
	ex := buildExecutor(t)
	r, err := ex.Run(DiffPlan("DJI", window(0, 7), window(21, 28)))
	if err != nil {
		t.Fatal(err)
	}
	d := r.Diff
	if d == nil || d.Entity != "DJI" {
		t.Fatalf("diff = %+v", d)
	}
	// The curated manufactures fact is visible in both windows → unchanged.
	if d.Unchanged != 1 {
		t.Fatalf("unchanged = %d, want the curated fact", d.Unchanged)
	}
	for _, f := range append(append([]core.Fact{}, d.Added...), d.Removed...) {
		if f.Curated {
			t.Fatalf("curated fact reported as change: %+v", f)
		}
	}
}

func TestExplainRendersOperatorTree(t *testing.T) {
	p := EntityPlan("DJI", window(0, 7), 10)
	out := p.Explain(nil)
	for _, want := range []string{"plan class=entity", "Summarize(", "Rank(k=10)", "WindowFilter(", "Scan(source=facts_about"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
	// Indentation reflects nesting: Scan is the deepest operator.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasPrefix(lines[len(lines)-1], strings.Repeat("  ", 4)) {
		t.Fatalf("Scan not at depth 4:\n%s", out)
	}

	// Unwindowed plans skip the WindowFilter so the hot path is visible.
	if strings.Contains(EntityPlan("DJI", temporal.All(), 10).Explain(nil), "WindowFilter") {
		t.Fatal("unbounded plan still wraps a WindowFilter")
	}

	d := DiffPlan("DJI", window(0, 7), window(7, 14)).Describe(nil)
	if d.Op != string(OpDiff) || len(d.Inputs) != 2 {
		t.Fatalf("Describe() = %+v", d)
	}
}

func TestExecStatsCountPlansAndOps(t *testing.T) {
	ex := buildExecutor(t)
	if _, err := ex.Run(EntityPlan("DJI", window(0, 7), 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(TrendingPlan(temporal.All(), 5)); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Plans != 2 || st.ByClass["entity"] != 1 || st.ByClass["trending"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for _, op := range []Op{OpSummarize, OpRank, OpWindowFilter, OpScan, OpTrendScan} {
		if st.Ops[string(op)] == 0 {
			t.Fatalf("op %s not counted: %+v", op, st.Ops)
		}
	}
}

func TestRunRejectsEmptyAndUnknownPlans(t *testing.T) {
	ex := buildExecutor(t)
	if _, err := ex.Run(nil); err == nil {
		t.Fatal("nil plan accepted")
	}
	if _, err := ex.Run(&Plan{Class: "bogus", Root: &Scan{Source: SourcePatterns}}); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := ex.Run(&Plan{Class: "fact", Root: &Scan{Source: Source("bogus")}}); err == nil {
		t.Fatal("unknown scan source accepted")
	}
}

// TestConcurrentRunsShareOneCache: concurrent Runs of one cacheable plan,
// beside stats reads, execute it once and serve every other caller from the
// plan-result cache or its in-flight compute — with one answer for all.
func TestConcurrentRunsShareOneCache(t *testing.T) {
	ex := buildExecutor(t)
	p := DiffPlan("", window(21, 28), window(42, 49))
	const workers, runs = 8, 20
	results := make(chan Result, workers*runs)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < runs; j++ {
				r, err := ex.Run(p)
				if err != nil {
					t.Error(err)
					return
				}
				results <- r
				ex.Stats()
			}
		}()
	}
	wg.Wait()
	close(results)
	first := <-results
	for r := range results {
		if !reflect.DeepEqual(first, r) {
			t.Fatalf("concurrent runs disagree:\n%+v\n%+v", first, r)
		}
	}
	st := ex.Stats()
	c := st.Cache
	if c.Misses != 1 || st.Plans != 1 {
		t.Fatalf("plan executed %d times (misses %d), want once", st.Plans, c.Misses)
	}
	if got := c.Hits + c.Misses + c.Coalesced; got != workers*runs {
		t.Fatalf("cache lookups = %d, want %d: %+v", got, workers*runs, *c)
	}
}
