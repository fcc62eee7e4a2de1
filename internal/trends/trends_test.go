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

func added(s, p, o string, t time.Time) core.Event {
	return core.Event{Kind: core.FactAdded, Fact: core.Fact{Triple: core.Triple{
		Subject: s, Predicate: p, Object: o,
		Provenance: core.Provenance{Time: t, Source: "wsj"},
	}}}
}

func TestBurstDetection(t *testing.T) {
	d := NewDetector(DefaultConfig())
	// Background: one DJI mention per week for 8 weeks.
	for w := 0; w < 8; w++ {
		d.OnEvent(added("DJI", "manufactures", "Phantom 3", day(w*7)))
	}
	// Burst: five mentions of Windermere in the current week (week 9).
	for i := 0; i < 5; i++ {
		d.OnEvent(added("Windermere", "deploys", "Phantom 3", day(63+i%3)))
	}
	now := day(64)
	ts := d.Trending(now, 5)
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

func TestCuratedFactsIgnored(t *testing.T) {
	d := NewDetector(DefaultConfig())
	ev := added("DJI", "manufactures", "Phantom 3", day(0))
	ev.Fact.Curated = true
	d.OnEvent(ev)
	d.OnEvent(core.Event{Kind: core.FactEvicted, Fact: ev.Fact})
	if got := d.Trending(day(0), 10); len(got) != 0 {
		t.Fatalf("curated/evicted events produced trends: %+v", got)
	}
}

func TestMinCurrentFilters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinCurrent = 3
	d := NewDetector(cfg)
	d.OnEvent(added("DJI", "acquired", "Aeros", day(0)))
	d.OnEvent(added("DJI", "acquired", "RoboPix", day(0)))
	// DJI has 2 mentions... wait: subject DJI counts twice (two facts).
	// Aeros and RoboPix have 1 each and must be filtered.
	ts := d.Trending(day(0), 10)
	for _, tr := range ts {
		if tr.Current < 3 {
			t.Fatalf("below-threshold trend leaked: %+v", tr)
		}
	}
}

func TestPredicateTrends(t *testing.T) {
	d := NewDetector(DefaultConfig())
	for i := 0; i < 4; i++ {
		d.OnEvent(added("A Co", "acquired", "B Co", day(i%2)))
	}
	found := false
	for _, tr := range d.Trending(day(1), 10) {
		if tr.Kind == KindPredicate && tr.Name == "acquired" {
			found = true
		}
	}
	if !found {
		t.Fatal("predicate trend missing")
	}
}

func TestSeries(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.OnEvent(added("DJI", "acquired", "Aeros", day(0)))
	d.OnEvent(added("DJI", "acquired", "RoboPix", day(7)))
	d.OnEvent(added("DJI", "acquired", "SkyCam 1", day(7)))
	s := d.Series("DJI", day(8), 3)
	if len(s) != 3 {
		t.Fatalf("series len = %d", len(s))
	}
	if s[2] != 2 || s[1] != 1 {
		t.Fatalf("series = %v, want [.. 1 2]", s)
	}
	if got := d.Series("Unknown", day(8), 2); got[0] != 0 || got[1] != 0 {
		t.Fatalf("unknown series = %v", got)
	}
}

func TestQuietWindowFallsBackToLatestActive(t *testing.T) {
	d := NewDetector(DefaultConfig())
	// Burst in week 0; query at week 10 where nothing happened.
	for i := 0; i < 4; i++ {
		d.OnEvent(added("Windermere", "deploys", "Phantom 3", day(0)))
	}
	ts := d.Trending(day(70), 5)
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
	d := NewDetector(DefaultConfig())
	d.OnEvent(added("DJI", "acquired", "Aeros", time.Time{}))
	if got := d.Trending(day(0), 10); len(got) != 0 {
		t.Fatalf("zero-time event counted: %+v", got)
	}
}

func TestKGIntegration(t *testing.T) {
	kg := core.NewKG(nil)
	d := NewDetector(DefaultConfig())
	kg.Subscribe(d.OnEvent)
	for i := 0; i < 3; i++ {
		if _, err := kg.AddFact(core.Triple{
			Subject: "Windermere", Predicate: "deploys", Object: "Phantom 3",
			Confidence: 0.8, Provenance: core.Provenance{Source: "wsj", Time: day(0)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ts := d.Trending(day(0), 5)
	if len(ts) == 0 || ts[0].Current < 3 {
		t.Fatalf("KG events not observed: %+v", ts)
	}
}

func TestBucketOfFloorsPre1970(t *testing.T) {
	d := NewDetector(DefaultConfig())
	// A timestamp strictly before the epoch must land in the bucket that
	// contains it, not be truncated toward zero (one bucket late).
	pre := time.Date(1969, 12, 31, 12, 0, 0, 0, time.UTC) // -12h
	b := d.bucketOf(pre)
	if b != -1 {
		t.Fatalf("bucketOf(1969-12-31) = %d, want -1", b)
	}
	// Mentions before 1970 must be counted in their own week, so a query at
	// that time sees them as current.
	d.OnEvent(added("Apollo", "deploys", "Saturn V", pre))
	d.OnEvent(added("Apollo", "deploys", "Saturn V", pre))
	s := d.Series("Apollo", pre, 1)
	if s[0] != 2 {
		t.Fatalf("pre-1970 series = %v, want [2]", s)
	}
	// Exact bucket boundaries stay exact in both eras.
	if got := d.bucketOf(time.Unix(0, 0)); got != 0 {
		t.Fatalf("bucketOf(epoch) = %d", got)
	}
	week := int64((7 * 24 * time.Hour) / time.Second)
	if got := d.bucketOf(time.Unix(-week, 0)); got != -1 {
		t.Fatalf("bucketOf(-1 week exactly) = %d, want -1", got)
	}
}

func TestSeriesNonPositiveN(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.OnEvent(added("DJI", "acquired", "Aeros", day(0)))
	if got := d.Series("DJI", day(0), 0); got != nil {
		t.Fatalf("Series(n=0) = %v, want nil", got)
	}
	if got := d.Series("DJI", day(0), -3); got != nil {
		t.Fatalf("Series(n=-3) = %v, want nil", got)
	}
}

func TestSeriesSharedNameSumsEntityAndPredicate(t *testing.T) {
	d := NewDetector(DefaultConfig())
	// "acquired" shows up both as an entity mention (subject) and as a
	// predicate; the series must sum both instead of shadowing one.
	d.OnEvent(added("acquired", "deploys", "Phantom 3", day(0))) // entity count
	d.OnEvent(added("DJI", "acquired", "Aeros", day(0)))         // predicate count
	s := d.Series("acquired", day(0), 1)
	if s[0] != 2 {
		t.Fatalf("shared-name series = %v, want [2]", s)
	}
	// A pure predicate name still has a series.
	p := d.Series("deploys", day(0), 1)
	if p[0] != 1 {
		t.Fatalf("predicate series = %v, want [1]", p)
	}
}

func fact(s, p, o string, t time.Time, curated bool) core.Fact {
	return core.Fact{Triple: core.Triple{
		Subject: s, Predicate: p, Object: o, Curated: curated,
		Provenance: core.Provenance{Time: t, Source: "wsj"},
	}}
}

// TestBackfillScoresInsideWindow plants a burst in a historical bucket that
// is NOT the window's end bucket: the live detector anchored at the window's
// end would miss it, the backfill scan must find it.
func TestBackfillScoresInsideWindow(t *testing.T) {
	cfg := Config{Bucket: 7 * 24 * time.Hour, Smoothing: 1, MinCurrent: 2}
	var facts []core.Fact
	// Baseline: one DJI mention per week for weeks 0..3.
	for wk := 0; wk < 4; wk++ {
		facts = append(facts, fact("DJI", "acquired", "Tiny Co", day(wk*7), false))
	}
	// Burst: five mentions in week 4.
	for i := 0; i < 5; i++ {
		facts = append(facts, fact("DJI", "acquired", "Aeros", day(28), false))
	}
	// Quiet again in weeks 5..7 (one mention each) — the window's end bucket
	// is NOT the burst bucket.
	for wk := 5; wk < 8; wk++ {
		facts = append(facts, fact("DJI", "acquired", "Tiny Co", day(wk*7), false))
	}

	w := temporal.Between(day(21), day(56)) // weeks 3..7
	got := Backfill(facts, w, cfg, 10)
	var dji *Trend
	for i := range got {
		if got[i].Name == "DJI" && got[i].Kind == KindEntity {
			dji = &got[i]
		}
	}
	if dji == nil {
		t.Fatalf("backfill missed the in-window burst: %+v", got)
	}
	// The best bucket is the week-4 burst (5+5=10 mentions of DJI as
	// subject... DJI appears once per fact), not the quiet end bucket.
	if dji.Current != 5 {
		t.Fatalf("backfill picked current=%d, want the 5-mention burst bucket", dji.Current)
	}
	if dji.Score <= 1 {
		t.Fatalf("burst not scored as a burst: %+v", dji)
	}
}

// TestBackfillRespectsWindowAndHistory: buckets outside the window never
// produce trends, but history before the window still feeds baselines, and
// facts after the window's end are invisible entirely.
func TestBackfillRespectsWindowAndHistory(t *testing.T) {
	cfg := Config{Bucket: 7 * 24 * time.Hour, Smoothing: 1, MinCurrent: 2}
	var facts []core.Fact
	// Big pre-window history for Windermere: 4/week for weeks 0..3.
	for wk := 0; wk < 4; wk++ {
		for i := 0; i < 4; i++ {
			facts = append(facts, fact("Windermere", "deploys", "Phantom", day(wk*7), false))
		}
	}
	// In-window: Windermere at its usual rate (no burst), GoPro bursting.
	for i := 0; i < 4; i++ {
		facts = append(facts, fact("Windermere", "deploys", "Phantom", day(28), false))
	}
	for i := 0; i < 6; i++ {
		facts = append(facts, fact("GoPro", "acquired", "Aeros", day(28), false))
	}
	// Post-window burst that must not leak in.
	for i := 0; i < 50; i++ {
		facts = append(facts, fact("Parrot", "acquired", "Aeros", day(70), false))
	}

	w := temporal.Between(day(28), day(35)) // week 4 only
	got := Backfill(facts, w, cfg, 0)
	for _, tr := range got {
		if tr.Name == "Parrot" {
			t.Fatalf("post-window fact leaked into backfill: %+v", tr)
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

// TestBackfillIgnoresCuratedAndTimelessAndEmpty mirrors the live detector's
// admission rule and the empty-window contract.
func TestBackfillIgnoresCuratedAndTimelessAndEmpty(t *testing.T) {
	cfg := DefaultConfig()
	facts := []core.Fact{
		fact("DJI", "acquired", "Aeros", day(0), true),       // curated
		fact("DJI", "acquired", "Aeros", time.Time{}, false), // timeless
		fact("DJI", "acquired", "Aeros", day(0), false),
		fact("DJI", "acquired", "Aeros", day(0), false),
	}
	got := Backfill(facts, temporal.Between(day(0), day(7)), cfg, 0)
	for _, tr := range got {
		if tr.Name == "DJI" && tr.Current != 2 {
			t.Fatalf("curated/timeless facts counted: %+v", tr)
		}
	}
	if len(got) == 0 {
		t.Fatal("extracted facts not counted at all")
	}
	if out := Backfill(facts, temporal.Empty(), cfg, 0); len(out) != 0 {
		t.Fatalf("empty window produced trends: %+v", out)
	}
}
