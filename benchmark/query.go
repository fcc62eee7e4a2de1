package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/url"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"nous"
	"nous/internal/pathsearch"
	"nous/internal/plan"
	"nous/internal/qa"
)

func runQueryStatic(cfg *config) (*result, error) { return runQuery(cfg, false) }
func runQueryLive(cfg *config) (*result, error)   { return runQuery(cfg, true) }

// client is one closed-loop load connection: it sends its next request only
// after checking the previous reply. Each client owns its request generator,
// HTTP connection, samples and tracer, so the timed loop takes no lock.
type client struct {
	id   int
	sys  *system
	http *http.Client
	gen  *requestGen
	tr   *tracer

	// static: the first reply's digest and epoch for every path, which every
	// repeat must match byte for byte (meta.took_ms aside).
	static bool
	seen   map[string]seenReply
	epoch  uint64 // newest meta.epoch seen; must never decrease

	latMS     []float32
	class     []uint8
	bytes     int64
	attempted int
	failed    int
	notes     []string
}

type seenReply struct {
	digest     uint64
	epoch      uint64
	importance float64
}

// importanceRE finds an entity summary's PageRank importance. Windowed
// PageRank is recomputed whenever its 8-window LRU evicts, and the sum comes
// out one unit in the last place different now and then, so the repeat oracle
// compares the importance to a relative 1e-9 and the rest byte for byte.
var importanceRE = regexp.MustCompile(`"Importance":\s*([0-9eE.+-]+)`)

func (a seenReply) same(b seenReply) bool {
	return a.digest == b.digest && a.epoch == b.epoch &&
		math.Abs(a.importance-b.importance) <= 1e-9*math.Abs(a.importance)
}

// envelope is the v1 response shape, as far as the oracles read it.
type envelope struct {
	Data  json.RawMessage `json:"data"`
	Error json.RawMessage `json:"error"`
	Meta  struct {
		Epoch uint64 `json:"epoch"`
	} `json:"meta"`
}

func newClient(id int, sys *system, seed int64, entities []string, probes []factProbe, static bool) *client {
	return &client{
		id: id, sys: sys, static: static,
		http: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		},
		gen:  newRequestGen(seed, id, entities, probes),
		seen: map[string]seenReply{},
	}
}

func (c *client) fail(r request, format string, args ...any) {
	c.failed++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf("client %d %s: ", c.id, r.Path)+fmt.Sprintf(format, args...))
	}
}

// get fetches one request and returns the latency the caller saw and the
// body. It does not judge the reply.
func (c *client) get(r request) (time.Duration, int, []byte, error) {
	start := time.Now()
	resp, err := c.http.Get(c.sys.base + r.Path)
	if err != nil {
		return time.Since(start), 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return time.Since(start), resp.StatusCode, body, err
}

// do sends one request, records its latency and checks the reply. record
// false is the warm-up: the reply is checked and remembered, not sampled.
// With a tracer the round trip (not the checking) is one "server" span,
// whose id do returns.
func (c *client) do(r request, record bool, req int) (time.Duration, int) {
	span := c.tr.begin("server", 0, req)
	lat, status, body, err := c.get(r)
	c.tr.end(span)
	if record {
		c.attempted++
		c.latMS = append(c.latMS, float32(lat)/1e6)
		c.class = append(c.class, uint8(r.Class))
		c.bytes += int64(len(body))
	}
	before := c.failed
	c.judge(r, status, body, err)
	if !record {
		c.failed = before
	}
	return lat, span
}

// judge applies the per-reply oracles.
func (c *client) judge(r request, status int, body []byte, err error) {
	if err != nil {
		c.fail(r, "transport: %v", err)
		return
	}
	if status != http.StatusOK {
		c.fail(r, "status %d: %.200s", status, body)
		return
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		c.fail(r, "malformed envelope: %v", err)
		return
	}
	if string(env.Error) != "null" || len(env.Data) == 0 || string(env.Data) == "null" {
		c.fail(r, "envelope error %s, data %.80s", env.Error, env.Data)
		return
	}
	if env.Meta.Epoch < c.epoch {
		c.fail(r, "meta.epoch went back from %d to %d", c.epoch, env.Meta.Epoch)
		return
	}
	c.epoch = env.Meta.Epoch
	if r.Expect != "" && !bytes.Contains(env.Data, []byte(r.Expect)) {
		c.fail(r, "checked fact probe does not name %q", r.Expect)
		return
	}
	if r.Class == classEntity {
		if name := entityName(env.Data); name == "" {
			c.fail(r, "entity answer names no entity")
			return
		} else if _, ok := c.sys.p.KG().Entity(name); !ok {
			c.fail(r, "entity answer names unknown entity %q", name)
			return
		}
	}
	if c.static {
		now := seenReply{epoch: env.Meta.Epoch}
		data := []byte(env.Data)
		if r.Class == classEntity {
			if m := importanceRE.FindSubmatchIndex(data); m != nil {
				now.importance, _ = strconv.ParseFloat(string(data[m[2]:m[3]]), 64)
				data = append(append([]byte(nil), data[:m[2]]...), data[m[3]:]...)
			}
		}
		h := fnv.New64a()
		h.Write(data)
		now.digest = h.Sum64()
		if first, ok := c.seen[r.Path]; !ok {
			c.seen[r.Path] = now
		} else if !first.same(now) {
			c.fail(r, "repeated key answered differently (epoch %d then %d)", first.epoch, now.epoch)
		}
	}
}

// entityName reads the entity an answer is about, from either the entity
// endpoint's summary or the ask endpoint's wrapped one.
func entityName(data []byte) string {
	var d struct {
		Name string
		Data *struct{ Name string } `json:"data"`
	}
	if json.Unmarshal(data, &d) != nil {
		return ""
	}
	if d.Data != nil {
		return d.Data.Name
	}
	return d.Name
}

// loop runs the closed loop until the deadline.
func (c *client) loop(deadline time.Time) {
	for n := 0; time.Now().Before(deadline); n++ {
		c.do(c.gen.next(), true, c.id*tracerStride+n)
	}
}

// querySystem is a served system plus its load clients.
type querySystem struct {
	*system
	clients  []*client
	entities []string
	written  int // fresh articles the live writer has ingested so far
}

// runQuery is the query_static and query_live workloads. Set-up integrates
// PreIngest articles, fits topics, starts the server and warms every client
// up; the timed phase is the closed loop of the request mix. live adds one
// writer goroutine calling Pipeline.Ingest on a fixed open-loop schedule.
func runQuery(cfg *config, live bool) (*result, error) {
	sz := cfg.Sizes
	nClients := runtime.NumCPU()
	if live {
		nClients--
	}
	if nClients < 1 {
		nClients = 1
	}
	// Enough fresh articles for a writer that never falls behind, twice over.
	writerDocs := 0
	if live {
		writerDocs = 2*int(cfg.Seconds+1)*sz.WriterPerSec + 1
	}
	var qs *querySystem
	sys, setupS, err := measureSetup(cfg, func() (*system, error) {
		s, err := openSystem(cfg, sz.PreIngest+writerDocs, 0)
		if err != nil {
			return nil, err
		}
		s.p.IngestAll(s.articles[:sz.PreIngest])
		s.p.BuildTopics()
		if err := s.serve(); err != nil {
			s.close()
			return nil, err
		}
		qs = &querySystem{system: s, entities: rankEntities(s.p.KG())}
		if len(qs.entities) < 2 {
			s.close()
			return nil, fmt.Errorf("only %d askable entities in the KG", len(qs.entities))
		}
		probes := factProbes(s.world, qs.entities)
		var wg sync.WaitGroup
		for i := 0; i < nClients; i++ {
			c := newClient(i, s, cfg.Seed, qs.entities, probes, !live)
			qs.clients = append(qs.clients, c)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < sz.WarmRequests; n++ {
					c.do(c.gen.next(), false, 0)
				}
			}()
		}
		wg.Wait()
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res := newResult()
	res.set("setup_s", setupS)
	cfg.printf("graph: %d entities (%d askable), %d facts at epoch %d; %d closed-loop clients, %d warm-up requests each\n",
		sys.p.KG().NumEntities(), len(qs.entities), sys.p.KG().NumFacts(), sys.p.KG().Graph().Epoch(), nClients, sz.WarmRequests)

	if cfg.Trace {
		return res, queryTraced(cfg, qs, res, live)
	}
	ph := qs.timedPhase(cfg, cfg.Seconds, live, nil)
	qs.report(cfg, res, ph, live)
	res.set("ops_per_s", ph.qps())
	res.set("op_p50_ms", median(ph.latMS))
	// The repeat oracle's memory of first replies is the generator's, not
	// the system's, and grows with the number of requests served: drop it
	// before sizing the heap.
	for _, c := range qs.clients {
		c.seen = map[string]seenReply{}
	}
	res.set("live_heap_mb", liveHeapMiB())
	if !live {
		qs.fullRangeProbes(res)
	}
	perFact, err := diskBytesPerFact(sys.p, sys.dir)
	if err != nil {
		return nil, err
	}
	res.set("disk_bytes_per_fact", perFact)
	return res, nil
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	wall      time.Duration
	attempted int
	failed    int
	bytes     int64
	latMS     []float64
	byClass   [numClasses][]float64
	notes     []string

	memoHits, memoMisses, memoEvictions, memoCoalesced uint64
	recomputes, windowedRecomputes                     uint64
	writerDocs                                         int
	writerLateMS                                       []float64
}

func (ph *phase) qps() float64 { return float64(ph.attempted-ph.failed) / ph.wall.Seconds() }

func (ph *phase) memoHitRatio() float64 {
	return hitRatio(ph.memoHits, ph.memoMisses+ph.memoCoalesced)
}

func hitRatio(hits, others uint64) float64 {
	if hits+others == 0 {
		return 0
	}
	return float64(hits) / float64(hits+others)
}

// timedPhase runs every client's closed loop for the given time — and, when
// live, the writer — and gathers the samples and the cache counters' deltas.
// tracers, when non-nil, gives each client one.
func (qs *querySystem) timedPhase(cfg *config, seconds float64, live bool, tracers []*tracer) *phase {
	p := qs.p
	plan0, an0 := p.PlanStats(), p.QueryStats()
	for i, c := range qs.clients {
		c.latMS, c.class, c.bytes, c.attempted, c.failed, c.notes = nil, nil, 0, 0, 0, nil
		c.tr = nil
		if tracers != nil {
			c.tr = tracers[i]
		}
	}
	ph := &phase{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range qs.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(deadline)
		}()
	}
	if live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs.writer(cfg, ph, start, deadline)
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)

	for _, c := range qs.clients {
		ph.attempted += c.attempted
		ph.failed += c.failed
		ph.bytes += c.bytes
		ph.notes = append(ph.notes, c.notes...)
		for i, l := range c.latMS {
			ph.latMS = append(ph.latMS, float64(l))
			ph.byClass[c.class[i]] = append(ph.byClass[c.class[i]], float64(l))
		}
	}
	plan1, an1 := p.PlanStats(), p.QueryStats()
	if plan0.Cache != nil && plan1.Cache != nil {
		ph.memoHits = plan1.Cache.Hits - plan0.Cache.Hits
		ph.memoMisses = plan1.Cache.Misses - plan0.Cache.Misses
		ph.memoEvictions = plan1.Cache.Evictions - plan0.Cache.Evictions
		ph.memoCoalesced = plan1.Cache.Coalesced - plan0.Cache.Coalesced
	}
	ph.windowedRecomputes = an1.WindowedComputes - an0.WindowedComputes
	ph.recomputes = an1.Computes - an0.Computes - ph.windowedRecomputes
	return ph
}

// writer is query_live's ingest schedule: article i is due at
// start + i/WriterPerSec whether or not the previous one is done (open
// loop), and its lateness is measured from when it was due.
func (qs *querySystem) writer(cfg *config, ph *phase, start, deadline time.Time) {
	interval := time.Second / time.Duration(cfg.Sizes.WriterPerSec)
	fresh := qs.articles[cfg.Sizes.PreIngest+qs.written:]
	for i := 0; i < len(fresh); i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		ph.writerLateMS = append(ph.writerLateMS, float64(time.Since(due))/1e6)
		qs.p.Ingest(fresh[i])
		ph.writerDocs++
	}
	qs.written += ph.writerDocs
}

// report prints a phase and folds its counts and oracle failures into res.
func (qs *querySystem) report(cfg *config, res *result, ph *phase, live bool) {
	res.Attempted += ph.attempted
	res.Failed += ph.failed
	res.notes = append(res.notes, ph.notes...)
	_, tail := tailPercentile(ph.latMS)
	cfg.printf("queries_per_s %.1f correct responses/s (%d attempted, %d failed, %.2f s, %d clients, closed loop)\n",
		ph.qps(), ph.attempted, ph.failed, ph.wall.Seconds(), len(qs.clients))
	cfg.printf("query_p50_ms %.4f ms pooled, %s (%d samples), %.0f bytes/response\n",
		median(ph.latMS), tail, len(ph.latMS), float64(ph.bytes)/float64(max(ph.attempted, 1)))
	for c, xs := range ph.byClass {
		_, t := tailPercentile(xs)
		cfg.printf("  %-13s p50 %8.4f ms, %s (%d samples)\n", classNames[c], median(xs), t, len(xs))
	}
	cfg.printf("plan-result cache: %d hits, %d misses, %d coalesced, %d evictions (hit ratio %.3f)\n",
		ph.memoHits, ph.memoMisses, ph.memoCoalesced, ph.memoEvictions, ph.memoHitRatio())
	cfg.printf("analytics: %d whole-graph recomputes, %d windowed-PageRank recomputes after warm-up\n", ph.recomputes, ph.windowedRecomputes)
	if !live {
		cfg.printf("predicted at a frozen epoch: 0 whole-graph recomputes (%v) and a memo hit ratio strictly between 0 and 1 (%v)\n",
			ph.recomputes == 0, ph.memoHitRatio() > 0 && ph.memoHitRatio() < 1)
		return
	}
	cfg.printf("predicted under writes: whole-graph recomputes > 0 over the full timed phase (%v) and a memo hit ratio below query_static's\n", ph.recomputes > 0)
	late := percentile(ph.writerLateMS, 100)
	cfg.printf("writer: %d articles at %d/s, writer_late_ms p50 %.3f max %.3f; epoch now %d\n",
		ph.writerDocs, cfg.Sizes.WriterPerSec, median(ph.writerLateMS), late, qs.p.KG().Graph().Epoch())
	res.check(late <= 1000, "writer fell %.0f ms behind its schedule; the run is invalid", late)
	res.check(ph.writerDocs > 0, "writer ingested nothing")
}

// fullRangeProbes checks, for the most-asked entities, that a bounded window
// covering every timestamp answers with the same facts as no window.
func (qs *querySystem) fullRangeProbes(res *result) {
	c := qs.clients[0]
	n := min(20, len(qs.entities))
	for _, name := range qs.entities[:n] {
		path := "/api/v1/entity?entity=" + url.QueryEscape(name)
		facts := func(path string) (string, error) {
			_, status, body, err := c.get(request{Path: path})
			if err != nil || status != http.StatusOK {
				return "", fmt.Errorf("status %d: %v", status, err)
			}
			var env struct {
				Data struct{ Facts json.RawMessage }
			}
			err = json.Unmarshal(body, &env)
			return string(env.Data.Facts), err
		}
		plain, err1 := facts(path)
		wide, err2 := facts(path + "&since=1000&until=9000")
		res.check(err1 == nil && err2 == nil && plain == wide,
			"full-range window answers differently from no window for %s (%v, %v)", name, err1, err2)
	}
}

// queryTraced is the traced run of a query workload: a quarter of the time
// untraced and a quarter with one root span per request — the difference in
// throughput is the tracing overhead, and the two together give the counters
// a closed-loop phase produces — then half the time replaying requests
// through the layers, one at a time.
func queryTraced(cfg *config, qs *querySystem, res *result, live bool) error {
	t0 := time.Now()
	an0 := qs.p.QueryStats()
	tracers := make([]*tracer, len(qs.clients))
	for i := range tracers {
		tracers[i] = newTracer(t0, i+1)
	}
	untraced := qs.timedPhase(cfg, cfg.Seconds/4, live, nil)
	traced := qs.timedPhase(cfg, cfg.Seconds/4, live, tracers)
	cfg.printf("untraced quarter:\n")
	qs.report(cfg, res, untraced, live)
	cfg.printf("traced quarter (one span per request):\n")
	qs.report(cfg, res, traced, live)

	for c := range traced.byClass {
		res.set("class_p50_ms."+classNames[c], median(append(untraced.byClass[c], traced.byClass[c]...)))
	}
	pooled := append(untraced.latMS, traced.latMS...)
	tail, _ := tailPercentile(pooled)
	res.set("server_tail_ms", tail)
	res.set("bytes_per_response", float64(untraced.bytes+traced.bytes)/float64(max(untraced.attempted+traced.attempted, 1)))
	res.set("memo_hit_ratio", hitRatio(untraced.memoHits+traced.memoHits,
		untraced.memoMisses+traced.memoMisses+untraced.memoCoalesced+traced.memoCoalesced))
	res.set("writer_late_ms", percentile(append(untraced.writerLateMS, traced.writerLateMS...), 100))
	if q := untraced.qps(); q > 0 {
		res.set("trace_overhead_pct", 100*(q-traced.qps())/q)
	}

	tr := newTracer(t0, 0)
	var wg sync.WaitGroup
	if live {
		// The writer keeps its schedule while requests are replayed.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph := &phase{}
			start := time.Now()
			qs.writer(cfg, ph, start, start.Add(time.Duration(cfg.Seconds/2*float64(time.Second))))
		}()
	}
	lay := newLayerReplay(qs, tr)
	for n, start := 0, time.Now(); time.Since(start).Seconds() < cfg.Seconds/2; n++ {
		lay.replay(n, qs.clients[0].gen.next())
	}
	wg.Wait()
	res.Attempted += lay.c.attempted
	res.Failed += lay.c.failed
	res.notes = append(res.notes, lay.c.notes...)
	lay.metrics(res)
	// Whole-graph recomputes are counted over all three phases: under the
	// live writer one falls due only every 256 mutations.
	an1 := qs.p.QueryStats()
	res.set("analytics_recomputes", float64((an1.Computes-an0.Computes)-(an1.WindowedComputes-an0.WindowedComputes)))

	// A PageRank recompute needs an epoch beyond the cache's staleness
	// budget (256 mutations), so it is forced last, after every other
	// measurement: the static workload's epoch is frozen until here.
	if err := addAll(qs.p.KG(), synthFacts(cfg.Seed, 0, 300)); err != nil {
		return err
	}
	before := qs.p.QueryStats().Computes
	d := tr.time("analytics.pagerank.cold", 0, -1, func() { qs.p.Analytics().PageRank() })
	if qs.p.QueryStats().Computes > before {
		res.set("pagerank_recompute_ms", float64(d)/1e6)
	}

	tr.merge(tracers...)
	cfg.printf("layer replay: %d requests; recording one span costs %d ns\n", lay.requests, spanCost().Nanoseconds())
	tr.printTable(cfg.Out)
	if err := tr.writeFile(cfg.traceOut(), cfg.Workload); err != nil {
		return err
	}
	cfg.printf("spans written to %s\n", cfg.traceOut())
	return nil
}

// layerReplay replays one request at a time, outermost layer first:
//
//	server                  GET over loopback HTTP (internal/server)
//	└ pipeline              the same query through nous.Pipeline
//	  ├ plan.explain        Pipeline.ExplainPlan (questions only): self = execution
//	  │ ├ qa.parse          qa.ParseAt
//	  │ └ plan.optimize     qa.Lower + plan.Optimize
//	  ├ pathsearch.topk     relationship: pathsearch.Searcher.TopK
//	  ├ temporal.scan       windowed classes: temporal.Index.EdgesIn / LatestIn
//	  ├ trends.trending     unwindowed trending: Pipeline.Trending
//	  ├ fgm.patterns        patterns: Pipeline.Patterns
//	  ├ core.facts          entity, fact: core.KG.FactsAboutWindow / ObjectsOfWindow
//	  └ analytics.pagerank  entity: analytics.Cache.PageRank / WindowedPageRank
type layerReplay struct {
	qs       *querySystem
	tr       *tracer
	c        *client
	searcher *pathsearch.Searcher
	card     plan.Cardinality
	now      time.Time

	requests             int
	overheadUS           []float64
	serverNS, pipelineNS time.Duration
	examined, rowsN      float64
}

func newLayerReplay(qs *querySystem, tr *tracer) *layerReplay {
	p := qs.p
	c := qs.clients[0]
	c.attempted, c.failed, c.notes, c.tr = 0, 0, nil, tr
	c.static = false // a replayed request is not a repeat of the closed loop's
	return &layerReplay{
		qs: qs, tr: tr, c: c,
		searcher: pathsearch.New(p.KG().Graph(), p.Analytics().Topics()),
		card:     &plan.GraphStats{KG: p.KG(), TIndex: p.TemporalIndex(), TrendBucketSec: int64(nous.DefaultConfig().Trends.Bucket / time.Second)},
		now:      time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

func (l *layerReplay) replay(n int, r request) {
	p, tr := l.qs.p, l.tr
	kg := p.KG()
	l.requests++

	server, srv := l.c.do(r, true, n)

	pl := tr.begin("pipeline", srv, n)
	var err error
	switch {
	case r.Question != "":
		_, err = p.Ask(r.Question)
	case r.Class == classEntity:
		_, err = p.AboutWindow(r.Entity, r.WinA)
	case r.Class == classDiff:
		_, err = p.Diff(r.Entity, r.WinA, r.WinB)
	case r.Class == classTrending && r.WinA.Bounded():
		_, err = p.TrendingWindow(r.WinA, r.K)
	case r.Class == classTrending:
		p.Trending(r.K)
	case r.Class == classRecent:
		p.RecentFacts(r.WinA, r.K)
	}
	inProcess := tr.end(pl)
	if err != nil {
		l.c.fail(r, "in-process replay: %v", err)
	}
	l.overheadUS = append(l.overheadUS, float64(server-inProcess)/1e3)
	l.serverNS += server
	l.pipelineNS += inProcess

	// The query as the planner sees it: parsed from the question, or built
	// the way the endpoint builds it.
	q := qa.Query{Subject: r.Entity, Window: r.WinA, WindowB: r.WinB, K: r.K}
	switch r.Class {
	case classEntity:
		q.Class = qa.ClassEntity
	case classDiff:
		q.Class = qa.ClassDiff
	case classTrending:
		q.Class = qa.ClassTrending
	}
	parent := pl
	if r.Question != "" {
		parent = tr.begin("plan.explain", pl, n)
		rep, err := p.ExplainPlan(r.Question, nous.Window{})
		tr.end(parent)
		if err == nil && rep.Trace != nil {
			l.countRows(rep.Describe())
		}
		tr.time("qa.parse", parent, n, func() { q, _ = qa.ParseAt(r.Question, l.now) })
	}
	if q.Class != "" {
		tr.time("plan.optimize", parent, n, func() {
			if lowered, err := qa.Lower(q); err == nil {
				plan.Optimize(lowered, l.card)
			}
		})
	}

	switch r.Class {
	case classRelationship:
		src, ok1 := kg.Entity(r.Entity)
		dst, ok2 := kg.Entity(r.Object)
		if ok1 && ok2 {
			tr.time("pathsearch.topk", pl, n, func() { l.searcher.TopK(src, dst, pathsearch.Options{K: r.K, Window: q.Window}) })
		}
	case classDiff:
		tr.time("temporal.scan", pl, n, func() {
			p.TemporalIndex().EdgesIn(q.Window)
			p.TemporalIndex().EdgesIn(q.WindowB)
		})
	case classRecent:
		tr.time("temporal.scan", pl, n, func() { p.TemporalIndex().LatestIn(r.WinA, r.K) })
	case classTrending:
		if q.Window.Bounded() {
			tr.time("temporal.scan", pl, n, func() { p.TemporalIndex().EdgesIn(q.Window) })
		} else {
			tr.time("trends.trending", pl, n, func() { p.Trending(r.K) })
		}
	case classPatterns:
		tr.time("fgm.patterns", pl, n, func() { p.Patterns(r.K) })
	case classEntity:
		tr.time("core.facts", pl, n, func() { kg.FactsAboutWindow(r.Entity, q.Window) })
		tr.time("analytics.pagerank", pl, n, func() {
			if q.Window.Bounded() {
				p.Analytics().WindowedPageRank(q.Window)
			} else {
				p.Analytics().PageRank()
			}
		})
	case classFact:
		tr.time("core.facts", pl, n, func() { kg.ObjectsOfWindow(q.Subject, q.Predicate, q.Window) })
	}
}

// countRows adds an executed plan's rows: examined is what its leaf
// operators produced, returned what its root did.
func (l *layerReplay) countRows(root nous.PlanNode) {
	if root.ActualRows == nil {
		return
	}
	var leaves func(n nous.PlanNode) int
	leaves = func(n nous.PlanNode) int {
		if len(n.Inputs) == 0 {
			if n.ActualRows != nil {
				return *n.ActualRows
			}
			return 0
		}
		sum := 0
		for _, in := range n.Inputs {
			sum += leaves(in)
		}
		return sum
	}
	l.examined += float64(leaves(root))
	l.rowsN += float64(*root.ActualRows)
}

func (l *layerReplay) metrics(res *result) {
	us := func(name string) float64 { return l.tr.medianOf(name, time.Microsecond) }
	res.set("http_overhead_us", median(l.overheadUS))
	res.set("parse_us", us("qa.parse"))
	res.set("optimize_us", us("plan.optimize"))
	res.set("exec_us", max(0, us("plan.explain")-us("qa.parse")-us("plan.optimize")))
	if l.rowsN > 0 {
		res.set("rows_examined_per_returned", l.examined/l.rowsN)
	}
	res.set("topk_us", us("pathsearch.topk"))
	res.set("patterns_us", us("fgm.patterns"))
	res.set("trending_us", us("trends.trending"))
	res.set("window_scan_us", us("temporal.scan"))
	if l.serverNS > 0 {
		res.set("span_coverage", float64(l.pipelineNS)/float64(l.serverNS))
	}
}
