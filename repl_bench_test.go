package nous_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nous"
	"nous/internal/ontology"
	"nous/internal/server"
)

// Benchmarks of WAL-shipping replication, the one subsystem no workload of
// benchmark/ drives. They report facts/s; neither is a regression gate.

// replLeaderFacts sizes the catch-up leader. At 20,000 synthetic facts a
// follower catches up at ≈ 18,000–20,000 facts/s on a 2-core Xeon, and
// both benchmarks together add ≈ 3 s to CI's `-bench=. -benchtime=1x`
// smoke. At 100,000 facts the same machine loaded the leader at ≈ 29,500
// facts/s and caught a follower up at ≈ 12,900–13,900 facts/s: catch-up is
// slower than live ingest, and slows as the leader grows.
const replLeaderFacts = 20_000

// replLeader is a durable leader on the seed-42 world's curated KB, serving
// the v1 API (and so its WAL stream) over loopback.
type replLeader struct {
	*nous.Pipeline
	url  string
	next int // index of the next synthetic fact
}

func newReplLeader(b *testing.B) *replLeader {
	b.Helper()
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = 42
	w := nous.GenerateWorld(wcfg)
	p, err := nous.OpenWithOptions(b.TempDir(), w.Ontology, nous.DefaultConfig(), nous.PersistOptions{
		FlushInterval:         time.Hour,
		DisableAutoCheckpoint: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	if err := w.SeedKG(p.KG()); err != nil {
		b.Fatal(err)
	}
	// The first query at a fresh epoch computes the per-epoch analytics; a
	// generous timeout keeps a slow machine's cold path out of the numbers.
	ts := httptest.NewServer(server.NewWithTimeout(p, 2*time.Minute))
	b.Cleanup(ts.Close)
	src := p.WALSource()
	src.Poll = 2 * time.Millisecond
	src.Heartbeat = 50 * time.Millisecond
	return &replLeader{Pipeline: p, url: ts.URL}
}

// add writes n synthetic acquisitions in batches of 512. Each joins two
// fresh companies, so the leader's pattern miner meets no hub and the
// benchmark stays about replication; provenance times rise monotonically.
func (l *replLeader) add(b *testing.B, n int) {
	b.Helper()
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	batch := make([]nous.Triple, 0, 512)
	flush := func() {
		_, errs := l.KG().AddFacts(batch)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		batch = batch[:0]
	}
	for end := l.next + n; l.next < end; l.next++ {
		batch = append(batch, nous.Triple{
			Subject:     fmt.Sprintf("BenchCo %06d", 2*l.next),
			Predicate:   "acquired",
			Object:      fmt.Sprintf("BenchCo %06d", 2*l.next+1),
			SubjectType: ontology.TypeCompany,
			ObjectType:  ontology.TypeCompany,
			Confidence:  0.9,
			Provenance:  nous.Provenance{Source: "bench", Time: base.Add(time.Duration(l.next) * time.Second)},
		})
		if len(batch) == cap(batch) {
			flush()
		}
	}
	if len(batch) > 0 {
		flush()
	}
}

// follow starts an empty follower of the leader. It is closed at the latest
// when the benchmark ends, before the leader's server, whose Close waits for
// the follower's WAL stream.
func (l *replLeader) follow(b *testing.B) *nous.Pipeline {
	b.Helper()
	f, err := nous.Follow(context.Background(), l.url, l.KG().Ontology(), nous.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return f
}

// waitConverged waits until f has applied the leader's current epoch.
func (l *replLeader) waitConverged(b *testing.B, f *nous.Pipeline) {
	b.Helper()
	target := l.KG().Graph().Epoch()
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); {
		if f.Follower().Status().AppliedEpoch >= target {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := f.Follower().Status()
	b.Fatalf("follower never converged: applied %d, leader %d, last error %q", st.AppliedEpoch, target, st.LastError)
}

// BenchmarkReplCatchUp times a fresh follower from empty to converged on a
// checkpointed leader of replLeaderFacts facts plus the curated KB: the
// snapshot download, bulk restore, index rebuild and WAL tail together.
func BenchmarkReplCatchUp(b *testing.B) {
	l := newReplLeader(b)
	l.add(b, replLeaderFacts)
	if err := l.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	facts := l.KG().NumFacts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := l.follow(b)
		l.waitConverged(b, f)
		b.StopTimer()
		if got := f.KG().NumFacts(); got != facts {
			b.Fatalf("follower holds %d facts, leader %d", got, facts)
		}
		f.Close() // Close is idempotent; closing now frees the stream
		b.StartTimer()
	}
	b.ReportMetric(float64(facts)*float64(b.N)/b.Elapsed().Seconds(), "facts/s")
}

// BenchmarkReplTail times a connected follower tracking the leader while
// it writes 20,000 facts, up to the follower's applying the last one, and
// reports the peak replication lag (leader mutations not yet applied)
// sampled every 2 ms.
func BenchmarkReplTail(b *testing.B) {
	const tailFacts = 20_000
	l := newReplLeader(b)
	f := l.follow(b)
	l.waitConverged(b, f)

	var peak uint64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				if lag := f.Follower().Status().Lag; lag > peak {
					peak = lag
				}
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.add(b, tailFacts)
		l.waitConverged(b, f)
	}
	b.StopTimer()
	close(stop)
	sampler.Wait()
	b.ReportMetric(float64(tailFacts)*float64(b.N)/b.Elapsed().Seconds(), "facts/s")
	b.ReportMetric(float64(peak), "peak-lag")
}
