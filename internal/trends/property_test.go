package trends

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nous/internal/core"
	"nous/internal/graph"
	"nous/internal/temporal"
)

// choices turns a byte string into a stream of bounded decisions, so
// testing/quick and the fuzzer drive the same generator. An exhausted string
// reads as zeros.
type choices struct{ b []byte }

func (c *choices) next(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	if len(c.b) > 1 {
		v = v<<8 | int(c.b[1])
		c.b = c.b[2:]
	} else {
		c.b = c.b[1:]
	}
	return v % n
}

// The generated world. The entity "acquired" shares its name with a
// predicate, so the summed sparkline is exercised.
var (
	propEntities   = []string{"Apex", "Bolt", "Crest", "Dyne", "acquired"}
	propPredicates = []string{"relatedTo", "acquired", "competesWith", "partnersWith"}
	propBuckets    = []time.Duration{time.Hour, 24 * time.Hour, 7 * 24 * time.Hour}
	// propBase is a Monday before 1970, so streams straddle the epoch and
	// the floored pre-1970 buckets.
	propBase = time.Date(1969, 12, 8, 0, 0, 0, 0, time.UTC).Unix()
)

// propTime draws a timestamp on a coarse grid around propBase, so equal
// timestamps and shared buckets are common and arrival order is random.
func propTime(c *choices) int64 {
	return propBase + int64(c.next(64))*int64(5*time.Hour/time.Second) + int64(c.next(3))
}

// matchesReference replays a random fact stream — additions, out-of-order
// and equal timestamps, curated and undated facts, single removals and
// evictions — into a KG the table tracks, then checks that the table gives
// byte-equal answers with the reference Detector and Backfill fed the
// surviving facts: Trending and Window at k ∈ {1, 3, all}, and Series for
// every entity and predicate name.
func matchesReference(data []byte) error {
	c := &choices{b: data}
	cfg := Config{Bucket: propBuckets[c.next(len(propBuckets))]}
	kg := core.NewKG(nil)
	var ids []core.FactID
	add := func() error {
		tr := core.Triple{
			Subject:    propEntities[c.next(len(propEntities))],
			Predicate:  propPredicates[c.next(len(propPredicates))],
			Object:     propEntities[c.next(len(propEntities))],
			Confidence: 0.5,
			Curated:    c.next(8) == 0,
			Provenance: core.Provenance{Source: "wsj"},
		}
		if c.next(8) != 0 {
			tr.Provenance.Time = time.Unix(propTime(c), 0)
		}
		id, err := kg.AddFact(tr)
		ids = append(ids, id)
		return err
	}
	// Facts already in the log when the table is built seed it, as at open.
	for n := c.next(12); n > 0; n-- {
		if err := add(); err != nil {
			return err
		}
	}
	tab := track(kg, cfg)
	for n := c.next(48); n > 0; n-- {
		switch c.next(10) {
		case 0:
			if len(ids) > 0 {
				id := ids[c.next(len(ids))]
				m := graph.Mutation{Kind: graph.MutRemoveEdge, EdgeID: id, Epoch: kg.Graph().Epoch() + 1}
				if err := kg.ApplyReplicated(m); err != nil {
					return err
				}
			}
		case 1:
			kg.EvictBefore(time.Unix(propTime(c), 0))
		default:
			if err := add(); err != nil {
				return err
			}
		}
	}

	facts := kg.AllFacts()
	ref := NewDetector(cfg)
	for _, f := range facts {
		ref.OnEvent(core.Event{Kind: core.FactAdded, Fact: f})
	}
	width := int64(cfg.Bucket / time.Second)
	at := func() int64 {
		if c.next(4) == 0 {
			return (propTime(c) / width) * width // a bucket boundary
		}
		return propTime(c)
	}
	for q := 0; q < 4; q++ {
		now := time.Unix(at(), 0)
		w := temporal.Window{Since: at(), Until: at()}
		switch q {
		case 0:
			w = temporal.All()
		case 1:
			w.Since = math.MinInt64
		case 2:
			w.Until = math.MaxInt64
		}
		for _, k := range []int{1, 3, 0} {
			if got, want := tab.Trending(now, k), ref.Trending(now, k); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("Trending(%d, %d):\n got %+v\nwant %+v", now.Unix(), k, got, want)
			}
			if got, want := tab.Window(w, k), Backfill(facts, w, cfg, k); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("Window(%+v, %d):\n got %+v\nwant %+v", w, k, got, want)
			}
		}
		n := 1 + c.next(6)
		for _, name := range append(append([]string{}, propEntities...), propPredicates...) {
			id, ok := kg.Entity(name)
			if !ok {
				id = -1
			}
			if got, want := tab.Series(id, name, now, n), ref.Series(name, now, n); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("Series(%q, %d, %d) = %v, want %v", name, now.Unix(), n, got, want)
			}
		}
	}
	return nil
}

// TestTableMatchesReference is the differential property: on random fact
// streams the table answers exactly as the detector and the backfill it
// replaced.
func TestTableMatchesReference(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			b := make([]byte, r.Intn(600))
			r.Read(b)
			args[0] = reflect.ValueOf(b)
		},
	}
	var failure error
	if err := quick.Check(func(data []byte) bool {
		failure = matchesReference(data)
		return failure == nil
	}, cfg); err != nil {
		t.Fatalf("%v\n%v", err, failure)
	}
}

// FuzzTrendsMatchReference exposes the differential property to the fuzzer.
func FuzzTrendsMatchReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15"))
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		b := make([]byte, 400)
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := matchesReference(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTableConcurrentReadersAndWriters runs live trending, windowed trending
// and sparkline readers beside a writer adding facts and an evictor, then
// checks the table against the reference over the surviving facts. Under
// the race detector it also proves every table access is ordered by the KG
// lock.
func TestTableConcurrentReadersAndWriters(t *testing.T) {
	kg := core.NewKG(nil)
	cfg := Config{Bucket: 24 * time.Hour}
	tab := Track(kg, cfg)
	const facts = 400
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < facts; i++ {
			if _, err := kg.AddFact(core.Triple{
				Subject: propEntities[i%len(propEntities)], Predicate: propPredicates[i%len(propPredicates)],
				Object: propEntities[(i/3)%len(propEntities)], Confidence: 0.5,
				Provenance: core.Provenance{Source: "wsj", Time: day(i / 8)},
			}); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 49 {
				kg.EvictBefore(day(i/8 - 20))
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch (i + r) % 3 {
				case 0:
					tab.Trending(day(i%60), 3)
				case 1:
					tab.Window(temporal.Between(day(i%40), day(i%40+9)), 0)
				case 2:
					id, _ := kg.Entity("Apex")
					tab.Series(id, "Apex", day(i%60), 8)
				}
			}
		}(r)
	}
	wg.Wait()

	ref := NewDetector(cfg)
	all := kg.AllFacts()
	for _, f := range all {
		ref.OnEvent(core.Event{Kind: core.FactAdded, Fact: f})
	}
	now := day(facts / 8)
	if got, want := tab.Trending(now, 0), ref.Trending(now, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Trending after the run:\n got %+v\nwant %+v", got, want)
	}
	w := temporal.Between(day(30), day(45))
	if got, want := tab.Window(w, 0), Backfill(all, w, cfg, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Window after the run:\n got %+v\nwant %+v", got, want)
	}
}
