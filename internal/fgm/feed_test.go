package fgm

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// Posted mutations, interleaved with synchronous ones, leave the miner in
// the state a miner that made every mutation synchronously, in the same
// order, is in: at each read the counts, the closed patterns and the
// transitions agree.
func TestPostedMatchesSynchronous(t *testing.T) {
	stream := hubStream(900, 90, 11)
	cfg := Config{MaxEdges: 3, MinSupport: 2, WindowSize: 200}
	m, ref := NewMiner(cfg), NewMiner(cfg)
	check := func(at int) {
		t.Helper()
		if got, want := m.ClosedPatterns(0), ref.ClosedPatterns(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("at edge %d: closed patterns differ:\n got %v\nwant %v", at, got, want)
		}
		gotIn, gotOut := m.Transitions()
		wantIn, wantOut := ref.Transitions()
		if !reflect.DeepEqual(gotIn, wantIn) || !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("at edge %d: transitions +%v -%v, want +%v -%v", at, gotIn, gotOut, wantIn, wantOut)
		}
		m.mu.RLock()
		defer m.mu.RUnlock()
		if got, want := countsOf(m), countsOf(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("at edge %d: counts differ", at)
		}
	}
	for i := 0; i+30 <= len(stream); i += 30 {
		for j, e := range stream[i : i+20] {
			e.ID = int64(2 * (i + j)) // gaps, so Advance has room to move
			m.Post(e)
			ref.Add(e)
		}
		m.PostRemove(int64(2 * (i + 3)))
		ref.Remove(int64(2 * (i + 3)))
		// Synchronous mutations wait for the posts before them.
		batch := append([]Edge(nil), stream[i+20:i+30]...)
		for j := range batch {
			batch[j].ID = int64(2 * (i + 20 + j))
		}
		m.AddBatch(batch)
		ref.AddBatch(batch)
		m.Advance(int64(2*(i+30) + 7))
		ref.Advance(int64(2*(i+30) + 7))
		if (i/30)%3 == 2 {
			check(i + 30)
		}
	}
	check(len(stream))
	if n := m.Backlog(); n != 0 {
		t.Fatalf("backlog %d after a read", n)
	}
}

// disjointStream is n edges that share no entity, so each counts one
// embedding and a long stream stays cheap under the race detector.
func disjointStream(n int) []Edge {
	labels := []string{"acquired", "partnersWith", "invests"}
	out := make([]Edge, n)
	for i := range out {
		out[i] = Edge{Src: int64(2 * i), Dst: int64(2*i + 1), SrcLabel: "C", DstLabel: "C", Label: labels[i%len(labels)]}
	}
	return out
}

// A poster that finds the feed full waits until the drain makes room, and
// a poster that holds a lock the miner's readers also take (as the
// pipeline's posts run under the KG's write lock) still finishes, because
// the drain takes only the miner's own lock.
func TestFullFeedDuringRead(t *testing.T) {
	stream := disjointStream(feedCap + 1)
	m := NewMiner(DefaultConfig())
	var kgLock sync.RWMutex // stands in for the KG lock

	m.mu.RLock() // a reader mid-scan: the drain cannot count
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		kgLock.Lock()
		defer kgLock.Unlock()
		for _, e := range stream {
			m.Post(e)
		}
	}()
	for m.Backlog() < feedCap {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-posted:
		t.Fatal("a post passed a full feed")
	case <-time.After(20 * time.Millisecond):
	}
	if n := m.Backlog(); n != feedCap {
		t.Fatalf("backlog %d, want the bound %d", n, feedCap)
	}
	m.mu.RUnlock()
	select {
	case <-posted:
	case <-time.After(time.Minute):
		t.Fatal("the poster never got past the full feed")
	}

	kgLock.RLock()
	got := m.ClosedPatterns(0)
	kgLock.RUnlock()
	ref := NewMiner(DefaultConfig())
	ref.AddBatch(stream)
	if want := ref.ClosedPatterns(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("closed patterns after the full feed differ:\n got %v\nwant %v", got, want)
	}
}

// A read waits for the posts made before it, not for an empty feed: it
// returns while a writer keeps posting beside it. Run it under -race.
func TestReadsDuringSteadyPosts(t *testing.T) {
	stream := disjointStream(2000)
	m := NewMiner(Config{MaxEdges: 3, MinSupport: 2, WindowSize: 150})
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				m.Post(stream[i%len(stream)])
			}
		}
	}()
	for i := 0; i < 20; i++ {
		m.ClosedPatterns(10)
		m.Transitions()
	}
	close(stop)
	writer.Wait()
	m.Wait()
	if n := m.Backlog(); n != 0 {
		t.Fatalf("backlog %d after Wait with no poster left", n)
	}
}
