package trends

import (
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/temporal"
)

func day(n int) time.Time {
	return time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

// fixture is a KG with a table tracking it.
type fixture struct {
	t   *testing.T
	kg  *core.KG
	tab *Table
}

func newFixture(t *testing.T) *fixture {
	kg := core.NewKG(nil)
	return &fixture{t: t, kg: kg, tab: Track(kg, DefaultConfig())}
}

// track is Track seeded with every fact kg holds, as the pipeline seeds it
// at assembly.
func track(kg *core.KG, cfg Config) *Table {
	t := Track(kg, cfg)
	kg.ScanFacts(t.Seed)
	return t
}

// add stores one fact; a zero time stores it undated.
func (f *fixture) add(s, p, o string, at time.Time, curated bool) {
	f.t.Helper()
	if _, err := f.kg.AddFact(core.Triple{
		Subject: s, Predicate: p, Object: o, Confidence: 0.8, Curated: curated,
		Provenance: core.Provenance{Time: at, Source: "wsj"},
	}); err != nil {
		f.t.Fatal(err)
	}
}

// series is the sparkline of a name, as an entity answer reads it.
func (f *fixture) series(name string, now time.Time, n int) []int {
	id, ok := f.kg.Entity(name)
	if !ok {
		id = -1
	}
	return f.tab.Series(id, name, now, n)
}

func TestBurstDetection(t *testing.T) {
	f := newFixture(t)
	// Background: one DJI mention per week for 8 weeks.
	for w := 0; w < 8; w++ {
		f.add("DJI", "manufactures", "Phantom 3", day(w*7), false)
	}
	// Burst: five mentions of Windermere in the current week (week 9).
	for i := 0; i < 5; i++ {
		f.add("Windermere", "deploys", "Phantom 3", day(63+i%3), false)
	}
	now := day(64)
	ts := f.tab.Trending(now, 5)
	if len(ts) == 0 {
		t.Fatal("no trends")
	}
	if ts[0].Name != "Windermere" {
		t.Fatalf("top trend = %+v, want Windermere", ts[0])
	}
	for _, tr := range ts {
		if tr.Name == "DJI" && tr.Score >= ts[0].Score {
			t.Fatal("steady entity outranked the burst")
		}
	}
}

// TestCuratedFactsIgnored: curated facts never count, and an evicted fact
// stops counting.
func TestCuratedFactsIgnored(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 3; i++ {
		f.add("DJI", "manufactures", "Phantom 3", day(0), true)
	}
	if got := f.tab.Trending(day(0), 10); len(got) != 0 {
		t.Fatalf("curated facts produced trends: %+v", got)
	}
	for i := 0; i < 3; i++ {
		f.add("Windermere", "deploys", "Phantom 3", day(0), false)
	}
	if got := f.tab.Trending(day(0), 10); len(got) == 0 {
		t.Fatal("extracted facts produced no trends")
	}
	if n := f.kg.EvictBefore(day(1)); n != 3 {
		t.Fatalf("evicted %d facts, want 3", n)
	}
	if got := f.tab.Trending(day(0), 10); len(got) != 0 {
		t.Fatalf("evicted facts still trend: %+v", got)
	}
	if got := f.series("Windermere", day(0), 1); got[0] != 0 {
		t.Fatalf("evicted facts still in the series: %v", got)
	}
}

func TestMinCurrentFilters(t *testing.T) {
	f := newFixture(t)
	f.tab.minCurrent = 3
	f.add("DJI", "acquired", "Aeros", day(0), false)
	f.add("DJI", "acquired", "RoboPix", day(0), false)
	f.add("DJI", "invests", "RoboPix", day(0), false)
	// DJI has 3 mentions and passes; RoboPix (2), Aeros (1) and both
	// predicates must be filtered.
	ts := f.tab.Trending(day(0), 10)
	if len(ts) != 1 || ts[0].Name != "DJI" {
		t.Fatalf("trends = %+v, want DJI alone", ts)
	}
}

func TestPredicateTrends(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 4; i++ {
		f.add("A Co", "acquired", "B Co", day(i%2), false)
	}
	found := false
	for _, tr := range f.tab.Trending(day(1), 10) {
		if tr.Kind == KindPredicate && tr.Name == "acquired" {
			found = true
		}
	}
	if !found {
		t.Fatal("predicate trend missing")
	}
}

func TestSeries(t *testing.T) {
	f := newFixture(t)
	f.add("DJI", "acquired", "Aeros", day(0), false)
	f.add("DJI", "acquired", "RoboPix", day(7), false)
	f.add("DJI", "acquired", "SkyCam 1", day(7), false)
	s := f.series("DJI", day(8), 3)
	if len(s) != 3 {
		t.Fatalf("series len = %d", len(s))
	}
	if s[2] != 2 || s[1] != 1 {
		t.Fatalf("series = %v, want [.. 1 2]", s)
	}
	if got := f.series("Unknown", day(8), 2); got[0] != 0 || got[1] != 0 {
		t.Fatalf("unknown series = %v", got)
	}
}

func TestQuietWindowFallsBackToLatestActive(t *testing.T) {
	f := newFixture(t)
	// Burst in week 0; query at week 10 where nothing happened.
	for i := 0; i < 4; i++ {
		f.add("Windermere", "deploys", "Phantom 3", day(0), false)
	}
	ts := f.tab.Trending(day(70), 5)
	found := false
	for _, tr := range ts {
		if tr.Name == "Windermere" && tr.Current == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallback failed: %+v", ts)
	}
}

func TestZeroTimeIgnored(t *testing.T) {
	f := newFixture(t)
	f.add("DJI", "acquired", "Aeros", time.Time{}, false)
	f.add("DJI", "acquired", "Aeros", time.Time{}, false)
	if got := f.tab.Trending(day(0), 10); len(got) != 0 {
		t.Fatalf("zero-time fact counted: %+v", got)
	}
	// Evicting the undated facts (they count as infinitely old) must not
	// drive any count below zero.
	if n := f.kg.EvictBefore(day(0)); n != 2 {
		t.Fatalf("evicted %d undated facts, want 2", n)
	}
	if got := f.series("DJI", day(0), 1); got[0] != 0 {
		t.Fatalf("series after evicting undated facts = %v", got)
	}
}

// TestKGIntegration: facts already in the KG when the table is built are
// counted, as are the ones added after.
func TestKGIntegration(t *testing.T) {
	kg := core.NewKG(nil)
	add := func() {
		if _, err := kg.AddFact(core.Triple{
			Subject: "Windermere", Predicate: "deploys", Object: "Phantom 3",
			Confidence: 0.8, Provenance: core.Provenance{Source: "wsj", Time: day(0)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	add()
	add()
	tab := track(kg, DefaultConfig())
	add()
	ts := tab.Trending(day(0), 5)
	if len(ts) == 0 || ts[0].Current != 3 {
		t.Fatalf("seeded and live facts not both counted: %+v", ts)
	}
}

func TestBucketOfFloorsPre1970(t *testing.T) {
	cfg := DefaultConfig()
	// A timestamp strictly before the epoch must land in the bucket that
	// contains it, not be truncated toward zero (one bucket late).
	pre := time.Date(1969, 12, 31, 12, 0, 0, 0, time.UTC) // -12h
	if b := bucketAt(cfg, pre.Unix()); b != -1 {
		t.Fatalf("bucketAt(1969-12-31) = %d, want -1", b)
	}
	// Mentions before 1970 must be counted in their own week, so a query at
	// that time sees them as current.
	f := newFixture(t)
	f.add("Apollo", "deploys", "Saturn V", pre, false)
	f.add("Apollo", "deploys", "Saturn V", pre, false)
	if s := f.series("Apollo", pre, 1); s[0] != 2 {
		t.Fatalf("pre-1970 series = %v, want [2]", s)
	}
	// Exact bucket boundaries stay exact in both eras.
	if got := bucketAt(cfg, 0); got != 0 {
		t.Fatalf("bucketAt(epoch) = %d", got)
	}
	week := int64((7 * 24 * time.Hour) / time.Second)
	if got := bucketAt(cfg, -week); got != -1 {
		t.Fatalf("bucketAt(-1 week exactly) = %d, want -1", got)
	}
}

func TestSeriesNonPositiveN(t *testing.T) {
	f := newFixture(t)
	f.add("DJI", "acquired", "Aeros", day(0), false)
	if got := f.series("DJI", day(0), 0); got != nil {
		t.Fatalf("Series(n=0) = %v, want nil", got)
	}
	if got := f.series("DJI", day(0), -3); got != nil {
		t.Fatalf("Series(n=-3) = %v, want nil", got)
	}
}

func TestSeriesSharedNameSumsEntityAndPredicate(t *testing.T) {
	f := newFixture(t)
	// "acquired" shows up both as an entity mention (subject) and as a
	// predicate; the series must sum both instead of shadowing one.
	f.add("acquired", "deploys", "Phantom 3", day(0), false) // entity count
	f.add("DJI", "acquired", "Aeros", day(0), false)         // predicate count
	if s := f.series("acquired", day(0), 1); s[0] != 2 {
		t.Fatalf("shared-name series = %v, want [2]", s)
	}
	// A pure predicate name still has a series.
	if p := f.series("deploys", day(0), 1); p[0] != 1 {
		t.Fatalf("predicate series = %v, want [1]", p)
	}
}

// TestBackfillScoresInsideWindow plants a burst in a historical bucket that
// is NOT the window's end bucket: live trending anchored at the window's
// end would miss it, the windowed scan must find it.
func TestBackfillScoresInsideWindow(t *testing.T) {
	f := newFixture(t)
	// Baseline: one DJI mention per week for weeks 0..3.
	for wk := 0; wk < 4; wk++ {
		f.add("DJI", "acquired", "Tiny Co", day(wk*7), false)
	}
	// Burst: five mentions in week 4.
	for i := 0; i < 5; i++ {
		f.add("DJI", "acquired", "Aeros", day(28), false)
	}
	// Quiet again in weeks 5..7 (one mention each) — the window's end bucket
	// is NOT the burst bucket.
	for wk := 5; wk < 8; wk++ {
		f.add("DJI", "acquired", "Tiny Co", day(wk*7), false)
	}

	got := f.tab.Window(temporal.Between(day(21), day(56)), 10) // weeks 3..7
	var dji *Trend
	for i := range got {
		if got[i].Name == "DJI" && got[i].Kind == KindEntity {
			dji = &got[i]
		}
	}
	if dji == nil {
		t.Fatalf("windowed scan missed the in-window burst: %+v", got)
	}
	// The best bucket is the week-4 burst, not the quiet end bucket.
	if dji.Current != 5 {
		t.Fatalf("windowed scan picked current=%d, want the 5-mention burst bucket", dji.Current)
	}
	if dji.Score <= 1 {
		t.Fatalf("burst not scored as a burst: %+v", dji)
	}
}

// TestBackfillRespectsWindowAndHistory: buckets outside the window never
// produce trends, but history before the window still feeds baselines, and
// facts after the window's end are invisible entirely.
func TestBackfillRespectsWindowAndHistory(t *testing.T) {
	f := newFixture(t)
	// Big pre-window history for Windermere: 4/week for weeks 0..3.
	for wk := 0; wk < 4; wk++ {
		for i := 0; i < 4; i++ {
			f.add("Windermere", "deploys", "Phantom", day(wk*7), false)
		}
	}
	// In-window: Windermere at its usual rate (no burst), GoPro bursting.
	for i := 0; i < 4; i++ {
		f.add("Windermere", "deploys", "Phantom", day(28), false)
	}
	for i := 0; i < 6; i++ {
		f.add("GoPro", "acquired", "Aeros", day(28), false)
	}
	// Post-window burst that must not leak in.
	for i := 0; i < 50; i++ {
		f.add("Parrot", "acquired", "Aeros", day(70), false)
	}

	got := f.tab.Window(temporal.Between(day(28), day(35)), 0) // week 4 only
	for _, tr := range got {
		if tr.Name == "Parrot" {
			t.Fatalf("post-window fact leaked into the windowed scan: %+v", tr)
		}
	}
	var wind, gopro *Trend
	for i := range got {
		switch got[i].Name {
		case "Windermere":
			wind = &got[i]
		case "GoPro":
			gopro = &got[i]
		}
	}
	if gopro == nil || wind == nil {
		t.Fatalf("missing expected trends: %+v", got)
	}
	// Windermere's baseline (4/week history) flattens its score; GoPro's
	// fresh burst must outrank it.
	if gopro.Score <= wind.Score {
		t.Fatalf("baseline-aware ranking wrong: gopro=%+v wind=%+v", gopro, wind)
	}
	if wind.Baseline != 4 {
		t.Fatalf("pre-window history not feeding baseline: %+v", wind)
	}
}

// TestBackfillIgnoresCuratedAndTimelessAndEmpty mirrors live trending's
// admission rule and the empty-window contract.
func TestBackfillIgnoresCuratedAndTimelessAndEmpty(t *testing.T) {
	f := newFixture(t)
	f.add("DJI", "acquired", "Aeros", day(0), true)       // curated
	f.add("DJI", "acquired", "Aeros", time.Time{}, false) // timeless
	f.add("DJI", "acquired", "Aeros", day(0), false)
	f.add("DJI", "acquired", "Aeros", day(0), false)
	got := f.tab.Window(temporal.Between(day(0), day(7)), 0)
	for _, tr := range got {
		if tr.Name == "DJI" && tr.Current != 2 {
			t.Fatalf("curated/timeless facts counted: %+v", tr)
		}
	}
	if len(got) == 0 {
		t.Fatal("extracted facts not counted at all")
	}
	if out := f.tab.Window(temporal.Empty(), 0); len(out) != 0 {
		t.Fatalf("empty window produced trends: %+v", out)
	}
}

// TestWindowCountsOnlyFactsBeforeTheEnd: a bucket the window's end cuts
// through counts the facts before the end, not the whole bucket.
func TestWindowCountsOnlyFactsBeforeTheEnd(t *testing.T) {
	f := newFixture(t)
	// 2015-01-01 is a Thursday, the first day of a unix week bucket.
	for i := 0; i < 3; i++ {
		f.add("DJI", "acquired", "Aeros", day(0), false)
	}
	for i := 0; i < 4; i++ {
		f.add("DJI", "acquired", "Aeros", day(3), false)
	}
	end := day(2)
	if bucketAt(DefaultConfig(), day(0).Unix()) != bucketAt(DefaultConfig(), day(3).Unix()) {
		t.Fatal("fixture days fall in different buckets")
	}
	got := f.tab.Window(temporal.Between(day(-7), end), 0)
	if len(got) == 0 || got[0].Current != 3 {
		t.Fatalf("windowed scan = %+v, want the 3 mentions before %s", got, end)
	}
	if got := f.tab.Window(temporal.Between(day(-7), day(7)), 0); len(got) == 0 || got[0].Current != 7 {
		t.Fatalf("whole-bucket window = %+v, want 7 mentions", got)
	}
}
