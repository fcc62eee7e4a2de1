package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"nous/internal/temporal"
)

// removeFact deletes one fact through the path EvictBefore takes, without
// the eviction event.
func (kg *KG) removeFact(id FactID) bool {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	return kg.removeLocked(id)
}

// TestRemoveFactKeepsIndexInSync removes every fact one by one and checks
// the temporal index (which now drives eviction) tracks the live fact set
// exactly — no stale entries, no leaks.
func TestRemoveFactKeepsIndexInSync(t *testing.T) {
	kg := NewKG(nil)
	const n = 100
	ids := make([]FactID, n)
	for i := 0; i < n; i++ {
		id, err := kg.AddFact(extracted("DJI", "acquired", fmt.Sprintf("Co %d", i), 0.8, day(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if got := kg.TemporalIndex().Len(); got != n {
		t.Fatalf("index = %d entries, want %d", got, n)
	}
	for i, id := range ids {
		if !kg.removeFact(id) {
			t.Fatalf("removeFact(%d) = false", id)
		}
		live := n - i - 1
		if got := kg.TemporalIndex().Len(); got != live {
			t.Fatalf("after %d removals index = %d entries, live = %d", i+1, got, live)
		}
	}
	// Eviction after heavy removal still works and stays empty.
	if evicted := kg.EvictBefore(day(200)); evicted != 0 {
		t.Fatalf("evicted %d facts from an empty KG", evicted)
	}
}

// TestEvictAfterPartialRemoval interleaves explicit removals with eviction
// passes: removed facts must not be re-evicted and every survivor stays
// evictable through the index-driven path.
func TestEvictAfterPartialRemoval(t *testing.T) {
	kg := NewKG(nil)
	const n = 10
	ids := make([]FactID, n)
	for i := 0; i < n; i++ {
		id, err := kg.AddFact(extracted("DJI", "acquired", fmt.Sprintf("Co %d", i), 0.8, day(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids[6:] {
		kg.removeFact(id)
	}
	if evicted := kg.EvictBefore(day(1)); evicted != 1 {
		t.Fatalf("evicted %d, want 1", evicted)
	}
	if kg.NumFacts() != 5 {
		t.Fatalf("facts = %d, want 5", kg.NumFacts())
	}
	// Every survivor is still evictable.
	if evicted := kg.EvictBefore(day(100)); evicted != 5 {
		t.Fatalf("final eviction removed %d, want 5", evicted)
	}
}

func TestRemoveFactThenEvictDoesNotDoubleCount(t *testing.T) {
	kg := NewKG(nil)
	a, _ := kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.8, day(1)))
	if _, err := kg.AddFact(extracted("DJI", "acquired", "RoboPix", 0.8, day(2))); err != nil {
		t.Fatal(err)
	}
	kg.removeFact(a)
	if n := kg.EvictBefore(day(10)); n != 1 {
		t.Fatalf("evicted %d, want 1 (removed fact must not be re-evicted)", n)
	}
}

func TestConcurrentRemoveFactAndAdd(t *testing.T) {
	kg := NewKG(nil)
	const workers, perWorker = 4, 50
	idCh := make(chan FactID, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id, err := kg.AddFact(extracted("DJI", "acquired",
					fmt.Sprintf("Co %d-%d", w, i), 0.8, day(i)))
				if err != nil {
					t.Error(err)
					return
				}
				idCh <- id
			}
		}(w)
	}
	var rg sync.WaitGroup
	removed := 0
	rg.Add(1)
	go func() {
		defer rg.Done()
		for id := range idCh {
			// Remove every other fact while writers keep adding; double
			// removal must report false, not corrupt state.
			if removed%2 == 0 {
				if !kg.removeFact(id) {
					t.Errorf("removeFact(%d) = false for a live fact", id)
				}
				if kg.removeFact(id) {
					t.Errorf("double removeFact(%d) = true", id)
				}
			}
			removed++
		}
	}()
	wg.Wait()
	close(idCh)
	rg.Wait()

	if kg.NumFacts() != kg.Graph().NumEdges() {
		t.Fatalf("facts %d != edges %d", kg.NumFacts(), kg.Graph().NumEdges())
	}
	// The eviction index tracks exactly the surviving facts.
	kg.EvictBefore(day(-1))
	if kg.TemporalIndex().Len() != kg.NumFacts() {
		t.Fatalf("index %d entries != %d facts", kg.TemporalIndex().Len(), kg.NumFacts())
	}
}

func TestFactsAboutWindow(t *testing.T) {
	kg := NewKG(nil)
	if _, err := kg.AddFact(curated("DJI", "manufactures", "Phantom 3")); err != nil {
		t.Fatal(err)
	}
	if _, err := kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.9, day(5))); err != nil {
		t.Fatal(err)
	}
	if _, err := kg.AddFact(extracted("DJI", "acquired", "RoboPix", 0.8, day(20))); err != nil {
		t.Fatal(err)
	}

	// Unbounded window == FactsAbout exactly.
	all := kg.FactsAbout("DJI")
	if got := kg.FactsAboutWindow("DJI", temporal.All()); !reflect.DeepEqual(got, all) {
		t.Fatalf("All window diverges: %+v vs %+v", got, all)
	}
	// A window around day 5 keeps the curated fact and the day-5 extraction.
	w := temporal.Between(day(0), day(10))
	got := kg.FactsAboutWindow("DJI", w)
	if len(got) != 2 {
		t.Fatalf("windowed facts = %+v, want curated + day-5", got)
	}
	for _, f := range got {
		if f.Object == "RoboPix" {
			t.Fatal("out-of-window fact leaked")
		}
	}
	// Fact-level windowed lookups agree.
	if !kg.HasFactWindow("DJI", "acquired", "Aeros", w) {
		t.Fatal("in-window fact not found")
	}
	if kg.HasFactWindow("DJI", "acquired", "RoboPix", w) {
		t.Fatal("out-of-window fact reported present")
	}
	if objs := kg.ObjectsOfWindow("DJI", "acquired", w); len(objs) != 1 || objs[0].Name != "Aeros" {
		t.Fatalf("ObjectsOfWindow = %+v", objs)
	}
	if subs := kg.SubjectsOfWindow("acquired", "RoboPix", w); len(subs) != 0 {
		t.Fatalf("SubjectsOfWindow leaked %+v", subs)
	}
	// Curated facts pass any window.
	if !kg.HasFactWindow("DJI", "manufactures", "Phantom 3", temporal.Between(day(100), day(200))) {
		t.Fatal("curated fact filtered by window")
	}
}

func TestExportJSONWindowFullRangeByteIdentical(t *testing.T) {
	kg := NewKG(nil)
	if _, err := kg.AddFact(curated("DJI", "manufactures", "Phantom 3")); err != nil {
		t.Fatal(err)
	}
	if _, err := kg.AddFact(extracted("DJI", "acquired", "Aeros", 0.9, day(5))); err != nil {
		t.Fatal(err)
	}
	var plain, windowed, wide bytes.Buffer
	if err := kg.ExportJSON(&plain); err != nil {
		t.Fatal(err)
	}
	if err := kg.ExportJSONWindow(&windowed, temporal.All()); err != nil {
		t.Fatal(err)
	}
	if err := kg.ExportJSONWindow(&wide, temporal.Window{Since: math.MinInt64 + 1, Until: math.MaxInt64 - 1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), windowed.Bytes()) {
		t.Fatal("full-range export differs from unwindowed export")
	}
	if !bytes.Equal(plain.Bytes(), wide.Bytes()) {
		t.Fatal("bounded all-covering export differs from unwindowed export")
	}
	// A narrow window drops the out-of-window extraction but keeps curated.
	var narrow bytes.Buffer
	if err := kg.ExportJSONWindow(&narrow, temporal.Between(day(100), day(101))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(narrow.Bytes(), []byte("Phantom 3")) || bytes.Contains(narrow.Bytes(), []byte("Aeros")) {
		t.Fatalf("narrow export wrong: %s", narrow.String())
	}
}
