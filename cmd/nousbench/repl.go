package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nous"
	"nous/internal/ontology"
	"nous/internal/server"
)

// claimRepl — WAL-shipping replication: a fresh follower bootstrapping from
// a 100k+-fact leader (snapshot restore + WAL tail), steady-state tail lag
// under concurrent leader ingest, and read fan-out across in-process
// replicas serving the v1 API.
func claimRepl(_ int, seed int64) {
	header("Claim C10 — WAL-shipping replication: catch-up, tail lag, read fan-out")

	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = seed
	w := nous.GenerateWorld(wcfg)

	dir, err := os.MkdirTemp("", "nous-repl-bench-")
	replCheck(err)
	defer os.RemoveAll(dir)
	leader, err := nous.OpenWithOptions(dir, w.Ontology, nous.DefaultConfig(), nous.PersistOptions{
		FlushInterval:         time.Hour,
		DisableAutoCheckpoint: true,
	})
	replCheck(err)
	defer leader.Close()
	replCheck(w.SeedKG(leader.KG()))

	// Synthetic acquisition facts over vertex-disjoint company pairs: each
	// triple lands as a fresh edge between two fresh entities, with
	// monotonically increasing provenance times feeding the temporal index.
	// Disjoint pairs keep the leader's streaming pattern miner out of the
	// measurement: its cost per fact grows with the square of the window
	// degree of the fact's endpoints (with MaxEdges 3), so a small reused
	// company pool would add hub work that has nothing to do with
	// replication. Since the integer kernel that work is tens of
	// nanoseconds per embedding rather than microseconds, so this is a
	// matter of keeping the benchmark about one subsystem, no longer of
	// fitting it into its time budget.
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	addFacts := func(start, count int) {
		const batch = 512
		buf := make([]nous.Triple, 0, batch)
		flush := func() {
			if len(buf) == 0 {
				return
			}
			_, errs := leader.KG().AddFacts(buf)
			for _, e := range errs {
				replCheck(e)
			}
			buf = buf[:0]
		}
		for i := start; i < start+count; i++ {
			buf = append(buf, nous.Triple{
				Subject:     fmt.Sprintf("BenchCo %06d", 2*i),
				Predicate:   "acquired",
				Object:      fmt.Sprintf("BenchCo %06d", 2*i+1),
				SubjectType: ontology.TypeCompany,
				ObjectType:  ontology.TypeCompany,
				Confidence:  0.9,
				Provenance:  nous.Provenance{Source: "bench", Time: base.Add(time.Duration(i) * time.Second)},
			})
			if len(buf) == batch {
				flush()
			}
		}
		flush()
	}

	// Part 1: catch-up. Load the leader past the 100k-fact mark, roll a
	// snapshot, then time a fresh follower from empty to converged — the
	// bootstrap download, bulk restore, index rebuild and WAL tail together.
	const catchupFacts = 100_000
	loadStart := time.Now()
	addFacts(0, catchupFacts)
	replCheck(leader.Checkpoint())
	totalFacts := leader.KG().NumFacts()
	fmt.Printf("leader: %d entities, %d facts, epoch %d (loaded in %s)\n",
		leader.KG().NumEntities(), totalFacts, leader.KG().Graph().Epoch(),
		time.Since(loadStart).Round(time.Millisecond))

	// A generous request timeout: the first query at a fresh epoch computes
	// the per-epoch analytics artifacts, and on a small CI machine that cold
	// path can brush the 15s production default — this bench measures
	// replication, not the serving timeout.
	const benchTimeout = 2 * time.Minute
	lts := httptest.NewServer(server.NewWithTimeout(leader, benchTimeout))
	defer lts.Close()
	src := leader.WALSource()
	src.Poll = 2 * time.Millisecond
	src.Heartbeat = 50 * time.Millisecond

	follow := func() *nous.Pipeline {
		f, err := nous.Follow(context.Background(), lts.URL, w.Ontology, nous.DefaultConfig())
		replCheck(err)
		return f
	}
	waitConverged := func(f *nous.Pipeline) {
		target := leader.KG().Graph().Epoch()
		deadline := time.Now().Add(2 * time.Minute)
		for time.Now().Before(deadline) {
			if f.Follower().Status().AppliedEpoch >= target {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		st := f.Follower().Status()
		fmt.Fprintf(os.Stderr, "follower never converged: applied=%d leader=%d lastErr=%q\n",
			st.AppliedEpoch, target, st.LastError)
		os.Exit(1)
	}

	start := time.Now()
	f := follow()
	defer f.Close()
	waitConverged(f)
	catchup := time.Since(start)
	fmt.Printf("catch-up: empty follower to %d facts in %s (%8.0f facts/s)\n",
		f.KG().NumFacts(), catchup.Round(time.Millisecond), float64(totalFacts)/catchup.Seconds())

	// Part 2: steady-state tail. Keep writing on the leader while the
	// follower is connected; sample replication lag and time how long the
	// follower trails the final write.
	const tailFacts = 20_000
	var maxLag uint64
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
				if lag := f.Follower().Status().Lag; lag > maxLag {
					maxLag = lag
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	start = time.Now()
	addFacts(catchupFacts, tailFacts)
	waitConverged(f)
	tailDur := time.Since(start)
	close(stopSampling)
	sampler.Wait()
	st := f.Follower().Status()
	fmt.Printf("tail: %d live facts replicated in %s (%8.0f facts/s); peak lag %d mutations, final lag %d\n",
		tailFacts, tailDur.Round(time.Millisecond), float64(tailFacts)/tailDur.Seconds(), maxLag, st.Lag)

	// Part 3: read fan-out. Three more in-process replicas join, every one
	// serving the full v1 read surface; aggregate query throughput for one
	// replica vs four, mixed read classes over HTTP.
	replicas := []*nous.Pipeline{f}
	for len(replicas) < 4 {
		r := follow()
		defer r.Close()
		waitConverged(r)
		replicas = append(replicas, r)
	}
	var servers []*httptest.Server
	for _, r := range replicas {
		ts := httptest.NewServer(server.NewWithTimeout(r, benchTimeout))
		defer ts.Close()
		servers = append(servers, ts)
	}
	paths := []string{
		"/api/v1/ask?q=Tell+me+about+DJI",
		"/api/v1/entity?entity=DJI",
		"/api/v1/recent?k=10",
		"/api/v1/trending?k=5",
	}
	// A dedicated client with a deep idle pool: the default transport keeps
	// two idle connections per host, so a worker pool against one replica
	// would churn TCP connections and bench the dialer instead.
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64}}
	get := func(url string) bool {
		res, err := client.Get(url)
		if err != nil {
			return false
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return res.StatusCode == http.StatusOK
	}
	for _, ts := range servers { // warm the per-epoch query caches
		for _, p := range paths {
			res, err := client.Get(ts.URL + p)
			replCheck(err)
			body, _ := io.ReadAll(res.Body)
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				fmt.Fprintf(os.Stderr, "replica warm-up failed: %s%s -> %s: %s\n", ts.URL, p, res.Status, body)
				os.Exit(1)
			}
		}
	}
	measure := func(pool []*httptest.Server) float64 {
		const workers = 16
		window := time.Second
		deadline := time.Now().Add(window)
		var served atomic.Int64
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for i := wk; time.Now().Before(deadline); i++ {
					if get(pool[i%len(pool)].URL + paths[i%len(paths)]) {
						served.Add(1)
					}
				}
			}(wk)
		}
		wg.Wait()
		return float64(served.Load()) / window.Seconds()
	}
	single := measure(servers[:1])
	fanned := measure(servers)
	fmt.Printf("fan-out: 1 replica %8.0f queries/s; %d replicas %8.0f queries/s (%.2fx)\n",
		single, len(servers), fanned, fanned/single)

	fmt.Println("\nshape target: catch-up outruns live ingest; lag returns to zero after a write burst;")
	fmt.Println("fan-out sustains aggregate reads across replicas (scales with the cores available)")
}

func replCheck(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
