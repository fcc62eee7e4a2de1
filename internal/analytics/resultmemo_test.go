package analytics

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResultMemoHitAtSameEpoch(t *testing.T) {
	m := NewResultMemo[string, string](8)
	computes := 0
	get := func(epoch uint64, key string) string {
		v, _, err := m.Get(epoch, key, func() (string, uint64, error) {
			computes++
			return fmt.Sprintf("%s@%d", key, epoch), epoch, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := get(1, "k"); v != "k@1" {
		t.Fatalf("got %q", v)
	}
	if v := get(1, "k"); v != "k@1" {
		t.Fatalf("got %q", v)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	// Epoch moved: recompute.
	if v := get(2, "k"); v != "k@2" {
		t.Fatalf("got %q", v)
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2", computes)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

// TestResultMemoLabelsComputedEpoch: a value is stored at the epoch its
// compute reports, so a view compiled past the requested epoch serves every
// read up to its own epoch and no later one.
func TestResultMemoLabelsComputedEpoch(t *testing.T) {
	m := NewResultMemo[string, int](8)
	computes := 0
	get := func(now uint64) int {
		v, _, _ := m.Get(now, "k", func() (int, uint64, error) {
			computes++
			return int(now) + 3, now + 3, nil
		})
		return v
	}
	if get(5) != 8 || get(7) != 8 || get(8) != 8 {
		t.Fatal("reads up to the computed epoch must serve the cached value")
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	if get(9) != 12 || computes != 2 {
		t.Fatalf("read past the computed epoch must recompute (computes = %d)", computes)
	}
}

func TestResultMemoLRUEviction(t *testing.T) {
	m := NewResultMemo[string, int](2)
	compute := func(v int) func() (int, uint64, error) {
		return func() (int, uint64, error) { return v, 1, nil }
	}
	m.Get(1, "a", compute(1))
	m.Get(1, "b", compute(2))
	m.Get(1, "a", compute(0)) // refresh a's recency
	m.Get(1, "c", compute(3)) // evicts b, the LRU
	if _, ok := m.Peek(1, "a"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := m.Peek(1, "c"); !ok {
		t.Fatal("recently used entries were evicted")
	}
	if _, ok := m.Peek(1, "b"); ok {
		t.Fatal("LRU entry survived past the cap")
	}
	st := m.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
}

func TestResultMemoSingleflight(t *testing.T) {
	m := NewResultMemo[string, int](8)
	var computes atomic.Int32
	gate := make(chan struct{})
	const workers = 8
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := m.Get(7, "k", func() (int, uint64, error) {
				computes.Add(1)
				<-gate
				return 42, 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight)", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("worker %d got %d", i, v)
		}
	}
	st := m.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != workers-1 {
		t.Fatalf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, workers-1)
	}
}

func TestResultMemoErrorsNotCached(t *testing.T) {
	m := NewResultMemo[string, int](8)
	boom := errors.New("boom")
	if _, _, err := m.Get(1, "k", func() (int, uint64, error) { return 0, 1, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := m.Peek(1, "k"); ok {
		t.Fatal("failed compute was cached")
	}
	v, hit, err := m.Get(1, "k", func() (int, uint64, error) { return 9, 1, nil })
	if err != nil || hit || v != 9 {
		t.Fatalf("retry after error: v=%d hit=%v err=%v", v, hit, err)
	}
	if v, ok := m.Peek(1, "k"); !ok || v != 9 {
		t.Fatal("successful retry not cached")
	}
}

func TestResultMemoNewerEpochServesWaiters(t *testing.T) {
	// A value stored at a newer epoch than requested is fresh enough — the
	// memo must not recompute for an older "now".
	m := NewResultMemo[string, int](8)
	computes := 0
	m.Get(9, "k", func() (int, uint64, error) { computes++; return 99, 9, nil })
	v, hit, _ := m.Get(7, "k", func() (int, uint64, error) { computes++; return 77, 7, nil })
	if !hit || v != 99 || computes != 1 {
		t.Fatalf("older-epoch read: v=%d hit=%v computes=%d", v, hit, computes)
	}
}
