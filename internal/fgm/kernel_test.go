package fgm

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// hubStream draws a news-like stream over nVerts entities. An entity's type
// is its id mod 3 and every predicate joins one pair of types, as an
// ontology would have it, so the shapes a window can hold are a few
// thousand and a warmed miner has met them all. Sources are zipfian within
// their type: a few hubs carry much of the window, which is the degree
// profile that decides the miner's cost.
func hubStream(n, nVerts int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 8, uint64(nVerts/3-1))
	types := []string{"Company", "Person", "Product"}
	schema := []struct {
		src   int
		label string
		dst   int
	}{
		{0, "acquired", 0}, {0, "partnersWith", 0}, {0, "manufactures", 2},
		{0, "employs", 1}, {1, "invests", 0}, {1, "founded", 0},
	}
	out := make([]Edge, n)
	for i := range out {
		r := schema[rng.Intn(len(schema))]
		s := int64(zipf.Uint64())*3 + int64(r.src)
		d := int64(rng.Intn(nVerts/3))*3 + int64(r.dst)
		out[i] = Edge{
			Src: s, Dst: d,
			SrcLabel: types[r.src], DstLabel: types[r.dst],
			Label: r.label,
		}
	}
	return out
}

// A steady-state Add on a full count window evicts one edge and counts one:
// once the memo holds every shape of the stream and the slabs have reached
// their size, that allocates (next to) nothing.
func TestAddSteadyStateAllocs(t *testing.T) {
	const window = 256
	// One pass warms the memo and the slabs; replaying the same stream at
	// fresh times meets no new shape.
	stream := hubStream(4*window, 400, 9)
	m := NewMiner(Config{MaxEdges: 3, MinSupport: 3, WindowSize: window})
	for round := 0; round < 2; round++ {
		for _, e := range stream {
			m.Add(e)
		}
	}
	shapes := len(m.memo.sigs)
	i := 0
	allocs := testing.AllocsPerRun(len(stream), func() {
		m.Add(stream[i%len(stream)])
		i++
	})
	if len(m.memo.sigs) != shapes {
		t.Fatalf("the measured adds met %d new shapes; the warm-up is too short", len(m.memo.sigs)-shapes)
	}
	if allocs > 2 {
		t.Fatalf("steady-state Add allocates %.1f objects, want <= 2", allocs)
	}
}

// Every exported method documents itself as safe for concurrent use; run the
// readers against the writers under -race.
func TestConcurrentReadersAndWriters(t *testing.T) {
	stream := hubStream(600, 60, 5)
	m := NewMiner(Config{MaxEdges: 3, MinSupport: 2, WindowSize: 120})
	m.AddBatch(stream[:100])
	probe := m.FrequentPatterns()[0]

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func(){
		func() { m.FindInstances(probe, 5) },
		func() { m.ClosedPatterns(10) },
		func() { m.FrequentPatterns() },
		func() { m.Transitions() },
		func() { m.Support(probe.Code); m.WindowLen(); m.EmbeddingsTouched() },
	} {
		readers.Add(1)
		go func(read func()) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}
	var gone int64 // every seq below it has been removed
	for i := 100; i+20 <= len(stream); i += 20 {
		m.AddBatch(stream[i : i+10])
		for _, e := range stream[i+10 : i+20] {
			m.Add(e)
		}
		for ; gone < int64(i-60); gone++ {
			m.Remove(gone)
		}
	}
	close(stop)
	readers.Wait()
}

// ClosedPatterns readers beside every kind of writer: a read that falls
// between two mutations equals the reference's first ten closed patterns
// at that state, and every read is sorted and at most ten long. The readers
// also race one another to fill the lattice.
func TestClosedPatternsConcurrentWithAdd(t *testing.T) {
	stream := hubStream(340, 60, 6)
	m := NewMiner(Config{MaxEdges: 3, MinSupport: 2, WindowSize: 120})
	m.AddBatch(stream[:100])

	// seq is odd while the writer mutates; at each even value it has stored
	// the reference answer for the state that value names. After each
	// mutation the writer waits for one read to check against it, or for
	// a reader to fail.
	var seq, checked, failed atomic.Int64
	var want sync.Map
	want.Store(int64(0), closedOf(m.FrequentPatterns()))
	mutate := func(f func()) {
		seq.Add(1)
		f()
		want.Store(seq.Load()+1, closedOf(m.FrequentPatterns()))
		c := checked.Load()
		seq.Add(1)
		for checked.Load() == c && failed.Load() == 0 {
			runtime.Gosched()
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	errs := make(chan string, 4) // one send per reader at most
	fail := func(format string, args ...any) {
		errs <- fmt.Sprintf(format, args...)
		failed.Add(1)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := seq.Load()
				got := m.ClosedPatterns(10)
				after := seq.Load()
				if len(got) > 10 {
					fail("%d patterns, want at most 10", len(got))
					return
				}
				for i := 1; i < len(got); i++ {
					if !outranks(got[i-1].Support, &got[i-1], got[i].Support, &got[i]) {
						fail("unsorted at %d: %v before %v", i, got[i-1], got[i])
						return
					}
				}
				if before%2 != 0 || before != after {
					continue
				}
				ref, _ := want.Load(before)
				if w := ref.([]Pattern); !reflect.DeepEqual(got, w[:min(10, len(w))]) {
					fail("at seq %d\n got  %v\n want %v", before, got, w[:min(10, len(w))])
					return
				}
				checked.Add(1)
			}
		}()
	}
	var gone int64 // every seq below it has been removed
	for i := 100; i+20 <= len(stream); i += 20 {
		mutate(func() { m.AddBatch(stream[i : i+10]) })
		for _, e := range stream[i+10 : i+20] {
			mutate(func() { m.Add(e) })
		}
		mutate(func() {
			for ; gone < int64(i-60); gone++ {
				m.Remove(gone)
			}
		})
	}
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A returned pattern slice belongs to the caller: truncating or appending
// to it reaches no later read, and a read after a mutation sees the
// mutation.
func TestPatternReadIsolation(t *testing.T) {
	m := NewMiner(Config{MaxEdges: 2, MinSupport: 1})
	m.AddBatch(hubStream(40, 12, 3))
	first := m.ClosedPatterns(0)
	want := append([]Pattern(nil), first...)
	first = append(first[:1], Pattern{Code: "scribble"})
	first[0].Code = "scribble"
	for i, p := range m.ClosedPatterns(0) {
		if p.Code != want[i].Code || p.Support != want[i].Support {
			t.Fatalf("closed pattern %d changed under a caller's edit: %+v, want %+v", i, p, want[i])
		}
	}
	m.Add(hubStream(1, 12, 4)[0])
	if got, w := m.ClosedPatterns(0), closedOf(m.FrequentPatterns()); !reflect.DeepEqual(got, w) {
		t.Fatalf("read after a mutation:\n got  %v\n want %v", got, w)
	}
}

func reportEmbeddings(b *testing.B, m *Miner, before int64) {
	b.ReportMetric(float64(m.EmbeddingsTouched()-before)/b.Elapsed().Seconds(), "embeddings/s")
}

// BenchmarkMinerAdd is the ingest path's unit of work: one Add on a full
// 2,000-edge window (one eviction, one arrival).
func BenchmarkMinerAdd(b *testing.B) {
	stream := hubStream(20000, 600, 3)
	m := NewMiner(DefaultConfig())
	for _, e := range stream {
		m.Add(e)
	}
	before := m.EmbeddingsTouched()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(stream[i%len(stream)])
	}
	reportEmbeddings(b, m, before)
}

// BenchmarkMinerAddBatchSeed is restart's unit of work: seeding a fresh
// miner with 10k facts of which the 2,000-edge window keeps the tail.
func BenchmarkMinerAddBatchSeed(b *testing.B) {
	stream := hubStream(10000, 600, 4)
	b.ReportAllocs()
	var embeddings int64
	for i := 0; i < b.N; i++ {
		m := NewMiner(DefaultConfig())
		m.AddBatch(stream)
		embeddings += m.EmbeddingsTouched()
	}
	b.ReportMetric(float64(embeddings)/b.Elapsed().Seconds(), "embeddings/s")
}

// BenchmarkClosedPatternsAfterAdd is a patterns request beside a writer:
// one Add moves the window, then ClosedPatterns(10) reads it. Splitting
// each predicate by its object's parity gives the window some 3,000 pattern
// ids, about what the system benchmark's live miner holds.
func BenchmarkClosedPatternsAfterAdd(b *testing.B) {
	stream := hubStream(20000, 600, 5)
	for i := range stream {
		if stream[i].Dst%2 == 1 {
			stream[i].Label += "'"
		}
	}
	m := NewMiner(DefaultConfig())
	m.AddBatch(stream)
	m.ClosedPatterns(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(stream[i%len(stream)])
		if len(m.ClosedPatterns(10)) == 0 {
			b.Fatal("no closed patterns")
		}
	}
	b.ReportMetric(float64(len(m.memo.patterns)), "pattern-ids")
}
