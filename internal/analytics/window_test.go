package analytics

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/temporal"
)

// windowedKG mixes curated structure with dated extractions.
func windowedKG(t *testing.T) *core.KG {
	t.Helper()
	kg := core.NewKG(nil)
	day := func(n int) time.Time { return time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n) }
	facts := []core.Triple{
		{Subject: "DJI", Predicate: "acquired", Object: "Aeros Imaging", Confidence: 1, Curated: true},
		{Subject: "Windermere Capital", Predicate: "invests", Object: "DJI", Confidence: 1, Curated: true},
		{Subject: "GoPro", Predicate: "acquired", Object: "DJI", Confidence: 0.8,
			Provenance: core.Provenance{Source: "wsj", Time: day(5)}},
		{Subject: "GoPro", Predicate: "acquired", Object: "Aeros Imaging", Confidence: 0.8,
			Provenance: core.Provenance{Source: "wsj", Time: day(50)}},
	}
	for _, f := range facts {
		if _, err := kg.AddFact(f); err != nil {
			t.Fatal(err)
		}
	}
	return kg
}

func TestWindowedPageRankUnboundedDelegates(t *testing.T) {
	kg := windowedKG(t)
	c := New(kg)
	plain := c.PageRank()
	windowed := c.WindowedPageRank(temporal.All())
	if !reflect.DeepEqual(plain, windowed) {
		t.Fatal("unbounded windowed PageRank differs from PageRank")
	}
	if st := c.Stats(); st.WindowedArtifacts != 0 || st.WindowedComputes != 0 {
		t.Fatalf("unbounded window created windowed artifacts: %+v", st)
	}
}

func TestWindowedPageRankMemoizedPerWindow(t *testing.T) {
	kg := windowedKG(t)
	c := New(kg)
	w := temporal.Window{
		Since: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).Unix(),
		Until: time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC).Unix(),
	}
	first := c.WindowedPageRank(w)
	if first.Len() == 0 {
		t.Fatal("empty windowed PageRank")
	}
	again := c.WindowedPageRank(w)
	st := c.Stats()
	if st.WindowedComputes != 1 {
		t.Fatalf("repeat at unchanged epoch recomputed: %+v", st)
	}
	if st.WindowedArtifacts != 1 {
		t.Fatalf("artifacts = %d, want 1", st.WindowedArtifacts)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("cached windowed PageRank differs")
	}
	// A different window is its own artifact.
	w2 := temporal.Window{Since: w.Since, Until: w.Until + 86400}
	c.WindowedPageRank(w2)
	if st := c.Stats(); st.WindowedComputes != 2 || st.WindowedArtifacts != 2 {
		t.Fatalf("second window stats: %+v", st)
	}
	// A mutation invalidates windowed artifacts too.
	if _, err := kg.AddFact(core.Triple{Subject: "DJI", Predicate: "acquired", Object: "RoboPix",
		Confidence: 0.9, Provenance: core.Provenance{Source: "wsj", Time: time.Date(2015, 1, 10, 0, 0, 0, 0, time.UTC)}}); err != nil {
		t.Fatal(err)
	}
	c.WindowedPageRank(w)
	if st := c.Stats(); st.WindowedComputes != 3 {
		t.Fatalf("stale windowed artifact served after mutation: %+v", st)
	}
}

func TestWindowedPageRankRespectsWindow(t *testing.T) {
	kg := windowedKG(t)
	c := New(kg)
	id, ok := kg.Entity("DJI")
	if !ok {
		t.Fatal("no DJI")
	}
	// Window containing only the day-5 extraction: the GoPro→DJI edge is in,
	// the GoPro→Aeros edge (day 50) is out, so DJI's windowed importance
	// differs from its importance in the window past day 50.
	early := temporal.Window{
		Since: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).Unix(),
		Until: time.Date(2015, 1, 20, 0, 0, 0, 0, time.UTC).Unix(),
	}
	late := temporal.Window{
		Since: time.Date(2015, 2, 10, 0, 0, 0, 0, time.UTC).Unix(),
		Until: time.Date(2015, 3, 20, 0, 0, 0, 0, time.UTC).Unix(),
	}
	if c.WindowedImportance(id, early) <= c.WindowedImportance(id, late) {
		t.Fatalf("windowed importance ignores edge windows: early=%v late=%v",
			c.WindowedImportance(id, early), c.WindowedImportance(id, late))
	}
}

func TestWindowedPageRankCapEvicts(t *testing.T) {
	kg := windowedKG(t)
	c := New(kg)
	for i := 0; i < maxRanks+4; i++ {
		c.WindowedPageRank(temporal.Window{Since: int64(i), Until: int64(i) + 100})
	}
	if st := c.Stats(); st.WindowedArtifacts > maxRanks {
		t.Fatalf("windowed cache grew past the cap: %+v", st)
	}
}

func TestWindowedPageRankConcurrent(t *testing.T) {
	kg := windowedKG(t)
	c := New(kg)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 20; j++ {
				w := temporal.Window{Since: int64(j % 3), Until: int64(j%3) + 1000000000}
				if c.WindowedPageRank(w).Len() == 0 {
					t.Errorf("empty windowed PageRank (worker %d)", i)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if st := c.Stats(); st.WindowedArtifacts == 0 {
		t.Fatalf("no windowed artifacts after concurrent reads: %+v", fmt.Sprint(st))
	}
}

// TestWindowedPageRankHotWindowSurvivesChurn pins the LRU eviction policy:
// a window re-read between churning one-off windows must never be evicted,
// so its compute count stays at one no matter how many cold windows pass
// through the cap.
func TestWindowedPageRankHotWindowSurvivesChurn(t *testing.T) {
	kg := windowedKG(t)
	c := New(kg)
	hot := temporal.Window{Since: 100, Until: 1000000000}
	c.WindowedPageRank(hot)
	for i := 0; i < 20; i++ {
		c.WindowedPageRank(hot)
		c.WindowedPageRank(temporal.Window{Since: int64(1000 + i), Until: int64(2000 + i)})
	}
	st := c.Stats()
	// 1 hot compute + 20 cold computes; with arbitrary (or MRU) eviction the
	// hot window would recompute somewhere in the loop.
	if st.WindowedComputes != 21 {
		t.Fatalf("WindowedComputes = %d, want 21 (hot window was evicted)", st.WindowedComputes)
	}
	if st.WindowedArtifacts > maxRanks {
		t.Fatalf("artifacts = %d exceeds the cap %d", st.WindowedArtifacts, maxRanks)
	}
}
