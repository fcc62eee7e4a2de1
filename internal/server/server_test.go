package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"nous"
)

// testWorld is the small deterministic drone world every test runs over.
func testWorld() *nous.World {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Companies, wcfg.People, wcfg.Products, wcfg.Events = 10, 10, 10, 80
	return nous.GenerateWorld(wcfg)
}

// testPipeline is an in-memory pipeline over testWorld's curated KB with
// the first 60 articles of its stream ingested.
func testPipeline(tb testing.TB) *nous.Pipeline {
	tb.Helper()
	w := testWorld()
	kg, err := w.LoadKG()
	if err != nil {
		tb.Fatal(err)
	}
	p := nous.NewPipeline(kg, nous.DefaultConfig())
	p.IngestAll(nous.GenerateArticles(w, nous.DefaultArticleConfig(60)))
	return p
}

// serve runs h behind a real listener for the rest of the test.
func serve(t *testing.T, h http.Handler) *httptest.Server {
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	return serve(t, New(testPipeline(t)))
}

func TestAskEndpoint(t *testing.T) {
	ts := testServer(t)
	data := getData(t, ts.URL+"/api/v1/ask?q=Tell+me+about+DJI").(map[string]any)
	if data["class"] != "entity" {
		t.Fatalf("class = %v", data["class"])
	}
	if !strings.Contains(data["text"].(string), "DJI") {
		t.Fatalf("text = %v", data["text"])
	}
}

func TestAskRequiresQuery(t *testing.T) {
	ts := testServer(t)
	env := getV1(t, ts.URL+"/api/v1/ask", 400, "bad_request")
	if msg := env["error"].(map[string]any)["message"].(string); !strings.Contains(msg, "classes:") {
		t.Fatalf("message does not list the query classes: %q", msg)
	}
}

func TestAskRejectsGibberish(t *testing.T) {
	ts := testServer(t)
	getV1(t, ts.URL+"/api/v1/ask?q=flarp+blonk", 400, "parse_error")
}

// TestAskRejectsEmptyFactArguments: a fact question whose argument the
// quote trimming empties is the client's error, not an execution failure.
func TestAskRejectsEmptyFactArguments(t *testing.T) {
	ts := testServer(t)
	for _, q := range []string{`Where is "" headquartered?`, `What does '' manufacture?`, `Who acquired ""?`} {
		getV1(t, ts.URL+"/api/v1/ask?q="+url.QueryEscape(q), 400, "parse_error")
	}
}

// TestCuratedOnlyFeeds serves the curated KB with no stream ingested: the
// trend table is empty and no fact is dated, so trending (windowed or not) and
// the recent-facts feed answer empty lists — never null, and never an
// undated curated fact.
func TestCuratedOnlyFeeds(t *testing.T) {
	kg, err := testWorld().LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	ts := serve(t, New(nous.NewPipeline(kg, nous.DefaultConfig())))
	for _, path := range []string{
		"/api/v1/trending?k=5",
		"/api/v1/trending?k=5&since=2011&until=2015",
		"/api/v1/recent?k=5",
	} {
		if data := rawData(t, ts.URL+path); string(data) != "[]" {
			t.Errorf("GET %s data = %s, want []", path, data)
		}
	}
}

func TestEntityEndpoint(t *testing.T) {
	ts := testServer(t)
	data := getData(t, ts.URL+"/api/v1/entity?entity=DJI").(map[string]any)
	if data["Name"] != "DJI" {
		t.Fatalf("entity = %v", data)
	}
	getV1(t, ts.URL+"/api/v1/entity?entity=Zorblatt+Nine", 404, "unknown_entity")
	getV1(t, ts.URL+"/api/v1/entity", 400, "bad_request")
}

func TestTrendingEndpoint(t *testing.T) {
	ts := testServer(t)
	if trends := getData(t, ts.URL+"/api/v1/trending?k=5").([]any); len(trends) > 5 {
		t.Fatalf("k ignored: %d trends", len(trends))
	}
}

func TestPatternsEndpoint(t *testing.T) {
	ts := testServer(t)
	ps := getData(t, ts.URL+"/api/v1/patterns?k=5").([]any)
	if len(ps) == 0 {
		t.Fatal("no patterns served")
	}
	if p := ps[0].(map[string]any); p["pattern"] == "" || p["support"] == nil {
		t.Fatalf("pattern body = %v", p)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)
	if paths, _ := getData(t, ts.URL+"/api/v1/explain?src=DJI&dst=Shenzhen").([]any); len(paths) == 0 {
		t.Fatal("no explanation paths")
	}
	getV1(t, ts.URL+"/api/v1/explain?src=DJI", 400, "bad_request")
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	data := getData(t, ts.URL+"/api/v1/stats").(map[string]any)
	kg, ok := data["kg"].(map[string]any)
	if !ok || kg["Facts"] == nil {
		t.Fatalf("stats data = %v", data)
	}
}

func TestGraphEndpoint(t *testing.T) {
	ts := testServer(t)
	facts := getData(t, ts.URL+"/api/v1/graph?entity=DJI").([]any)
	if len(facts) == 0 {
		t.Fatal("no facts in DJI subgraph")
	}
	for _, f := range facts {
		if f := f.(map[string]any); f["subject"] != "DJI" && f["object"] != "DJI" {
			t.Fatalf("fact outside subgraph: %v", f)
		}
	}
}

func TestIndexServesHTML(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 || !strings.Contains(res.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("index: status=%d type=%s", res.StatusCode, res.Header.Get("Content-Type"))
	}
}

// TestIndexUsesV1Surface: the bundled console asks through /api/v1/ask and
// references no unversioned /api/ path.
func TestIndexUsesV1Surface(t *testing.T) {
	rec := httptest.NewRecorder()
	New(nous.NewPipeline(nous.NewKG(nil), nous.DefaultConfig())).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	page := rec.Body.String()
	if rec.Code != 200 || !strings.Contains(page, "/api/v1/ask?q=") {
		t.Fatalf("index (status %d) does not ask through /api/v1/ask:\n%s", rec.Code, page)
	}
	if n := strings.Count(page, "/api/"); n != strings.Count(page, "/api/v1/") {
		t.Fatalf("index references %d unversioned /api/ paths:\n%s", n-strings.Count(page, "/api/v1/"), page)
	}
}

func TestMalformedKParamIs400(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{
		"/api/v1/trending?k=abc",
		"/api/v1/trending?k=-3",
		"/api/v1/trending?k=0",
		"/api/v1/patterns?k=x",
		"/api/v1/patterns?k=-1",
		"/api/v1/explain?src=DJI&dst=Shenzhen&k=nope",
	} {
		getV1(t, ts.URL+path, 400, "bad_request")
	}
}

func TestGraphUnknownEntityIs404(t *testing.T) {
	ts := testServer(t)
	env := getV1(t, ts.URL+"/api/v1/graph?entity=Zorblatt+Nine", 404, "unknown_entity")
	if msg := env["error"].(map[string]any)["message"].(string); !strings.Contains(msg, "Zorblatt Nine") {
		t.Fatalf("error message = %q", msg)
	}
	// Mixed known+unknown must fail wholesale, before any bytes stream.
	getV1(t, ts.URL+"/api/v1/graph?entity=DJI,Zorblatt+Nine", 404, "unknown_entity")
}

func TestStatsReportsQueryCache(t *testing.T) {
	ts := testServer(t)
	// Prime the cache through an entity query, then read stats.
	getData(t, ts.URL+"/api/v1/ask?q=Tell+me+about+DJI")
	data := getData(t, ts.URL+"/api/v1/stats").(map[string]any)
	q, ok := data["query"].(map[string]any)
	if !ok {
		t.Fatalf("stats data missing query section: %v", data)
	}
	if q["epoch"] == nil || q["hits"] == nil || q["misses"] == nil {
		t.Fatalf("query cache stats incomplete: %v", q)
	}
	if q["epoch"].(float64) == 0 {
		t.Fatal("epoch = 0 after ingestion")
	}
}

func TestRepeatedEntityQueriesHitCache(t *testing.T) {
	ts := testServer(t)
	readQuery := func() map[string]any {
		t.Helper()
		return getData(t, ts.URL+"/api/v1/stats").(map[string]any)["query"].(map[string]any)
	}
	getData(t, ts.URL+"/api/v1/entity?entity=DJI") // warm the artifacts
	warm := readQuery()
	for i := 0; i < 5; i++ {
		getData(t, ts.URL+"/api/v1/entity?entity=DJI")
	}
	after := readQuery()
	if warm["computes"] != after["computes"] {
		t.Fatalf("recomputed at an unchanged epoch: %v -> %v", warm["computes"], after["computes"])
	}
	if after["hits"].(float64) <= warm["hits"].(float64) {
		t.Fatalf("hits did not grow: %v -> %v", warm["hits"], after["hits"])
	}
}

// TestRequestTimeoutReturns503: the timeout covers every enveloped endpoint
// (TestV1TimeoutEnvelope checks the body's error code).
func TestRequestTimeoutReturns503(t *testing.T) {
	ts := serve(t, NewWithTimeout(testPipeline(t), time.Nanosecond))
	res, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusServiceUnavailable {
		res.Body.Close()
		t.Fatalf("status = %d, want 503 on timeout", res.StatusCode)
	}
	// envelopeOf also checks the body is not content-sniffed to text/plain.
	if env := envelopeOf(t, res); env["error"] == nil {
		t.Fatal("timeout body carries no error")
	}
}

// TestConcurrentAskDuringIngest serves mixed-class queries while IngestAll
// mutates the graph — the paper's core "query while it changes" scenario.
// Run under -race this exercises the whole read layer: epoch cache, linker,
// path search, miner and trends.
func TestConcurrentAskDuringIngest(t *testing.T) {
	w := testWorld()
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := nous.NewPipeline(kg, nous.DefaultConfig())
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(120))
	p.IngestAll(arts[:20]) // warm start so queries have something to chew on
	ts := serve(t, New(p))

	queries := []string{
		"/api/v1/ask?q=Tell+me+about+DJI",
		"/api/v1/ask?q=What+is+trending%3F",
		"/api/v1/ask?q=What+patterns+are+emerging%3F",
		"/api/v1/ask?q=What+does+DJI+manufacture%3F",
		"/api/v1/ask?q=How+is+Windermere+related+to+DJI%3F",
		"/api/v1/stats",
		"/api/v1/trending?k=5",
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.IngestAll(arts[20:])
	}()

	const workers = 4
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				url := ts.URL + queries[(wkr+i)%len(queries)]
				res, err := http.Get(url)
				if err != nil {
					errc <- err
					return
				}
				if res.StatusCode != 200 {
					errc <- fmt.Errorf("GET %s = %d during ingest", url, res.StatusCode)
					res.Body.Close()
					return
				}
				res.Body.Close()
			}
		}(wkr)
	}
	wg.Wait()
	<-done
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The pipeline must still answer correctly after the storm.
	if data := getData(t, ts.URL+"/api/v1/ask?q=Tell+me+about+DJI").(map[string]any); data["class"] != "entity" {
		t.Fatalf("post-ingest ask class = %v", data["class"])
	}
}

func TestUnknownPathIs404(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", res.StatusCode)
	}
}

func TestStatsOmitsPersistForInMemoryPipeline(t *testing.T) {
	ts := testServer(t)
	data := getData(t, ts.URL+"/api/v1/stats").(map[string]any)
	if _, present := data["persist"]; present {
		t.Fatalf("in-memory pipeline reports a persist section: %v", data["persist"])
	}
}

func TestStatsReportsPersistState(t *testing.T) {
	p := openLeader(t, t.TempDir(), 20)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts := serve(t, New(p))

	data := getData(t, ts.URL+"/api/v1/stats").(map[string]any)
	ps, ok := data["persist"].(map[string]any)
	if !ok {
		t.Fatalf("stats data missing persist section: %v", data)
	}
	for _, key := range []string{"snapshot_epoch", "wal_seq", "wal_records", "wal_bytes", "checkpoints"} {
		if ps[key] == nil {
			t.Fatalf("persist stats missing %q: %v", key, ps)
		}
	}
	if ps["snapshot_epoch"].(float64) == 0 {
		t.Error("snapshot_epoch = 0 after a checkpoint")
	}
	if ps["checkpoints"].(float64) != 1 {
		t.Errorf("checkpoints = %v, want 1", ps["checkpoints"])
	}
}

func TestDiffEndpoint(t *testing.T) {
	ts := testServer(t)
	// The synthetic drone world spans 2010..2015; compare two in-corpus
	// years over the whole stream.
	body := getData(t, ts.URL+"/api/v1/diff?asince=2011&auntil=2012&bsince=2014&buntil=2015").(map[string]any)
	if body["class"] != "diff" {
		t.Fatalf("class = %v", body["class"])
	}
	data, ok := body["data"].(map[string]any)
	if !ok {
		t.Fatalf("data = %v", body["data"])
	}
	for _, key := range []string{"added", "removed", "window_a", "window_b"} {
		if _, ok := data[key]; !ok {
			t.Fatalf("diff payload missing %q: %v", key, data)
		}
	}

	// Entity-scoped diff.
	body = getData(t, ts.URL+"/api/v1/diff?entity=DJI&asince=2011&auntil=2012&bsince=2014&buntil=2015").(map[string]any)
	if data := body["data"].(map[string]any); data["entity"] != "DJI" {
		t.Fatalf("entity diff payload = %v", data)
	}

	// Error mapping: missing windows → 400, unknown entity → 404, malformed
	// bound → 400, inverted window → 400.
	getV1(t, ts.URL+"/api/v1/diff?asince=2011&auntil=2012", 400, "bad_request")
	getV1(t, ts.URL+"/api/v1/diff", 400, "bad_request")
	getV1(t, ts.URL+"/api/v1/diff?entity=Zorblatt+Unheard&asince=2011&auntil=2012&bsince=2014&buntil=2015", 404, "unknown_entity")
	getV1(t, ts.URL+"/api/v1/diff?asince=notadate&auntil=2012&bsince=2014&buntil=2015", 400, "bad_request")
	getV1(t, ts.URL+"/api/v1/diff?asince=2012&auntil=2011&bsince=2014&buntil=2015", 400, "bad_request")
}

func TestPlanEndpoint(t *testing.T) {
	ts := testServer(t)
	body := getData(t, ts.URL+"/api/v1/plan?q=Tell+me+about+DJI&since=2014&until=2015").(map[string]any)
	if body["class"] != "entity" {
		t.Fatalf("class = %v", body["class"])
	}
	explain, _ := body["explain"].(string)
	for _, want := range []string{"plan class=entity", "Summarize(", "WindowFilter(", "Scan("} {
		if !strings.Contains(explain, want) {
			t.Fatalf("explain missing %q:\n%s", want, explain)
		}
	}
	root, ok := body["root"].(map[string]any)
	if !ok || root["op"] != "Summarize" {
		t.Fatalf("root = %v", body["root"])
	}
	if _, ok := body["window"]; !ok {
		t.Fatalf("windowed plan response lacks window: %v", body)
	}

	// A diff question compiles to a Diff root with two inputs.
	body = getData(t, ts.URL+"/api/v1/plan?q=What+changed+about+DJI+between+2014+and+2015%3F").(map[string]any)
	root = body["root"].(map[string]any)
	if root["op"] != "Diff" || len(root["inputs"].([]any)) != 2 {
		t.Fatalf("diff plan root = %v", root)
	}

	// Parse failures are the client's fault.
	getV1(t, ts.URL+"/api/v1/plan?q=flarp+blonk+quux", 400, "parse_error")
	getV1(t, ts.URL+"/api/v1/plan", 400, "bad_request")
}

func TestTrendingEndpointWindowedBackfill(t *testing.T) {
	ts := testServer(t)
	trends := getData(t, ts.URL+"/api/v1/trending?k=5&since=2011&until=2015").([]any)
	if len(trends) == 0 {
		t.Fatal("windowed backfill found nothing in a four-year window")
	}
	if len(trends) > 5 {
		t.Fatalf("k ignored: %d trends", len(trends))
	}
	// Malformed window still 400s.
	getV1(t, ts.URL+"/api/v1/trending?since=2015&until=2011", 400, "bad_request")
}

func TestStatsReportsPlanCounters(t *testing.T) {
	ts := testServer(t)
	getData(t, ts.URL+"/api/v1/ask?q=Tell+me+about+DJI")
	getData(t, ts.URL+"/api/v1/ask?q=What+is+trending%3F")
	data := getData(t, ts.URL+"/api/v1/stats").(map[string]any)
	planStats, ok := data["plan"].(map[string]any)
	if !ok {
		t.Fatalf("stats lack plan section: %v", data)
	}
	if n, _ := planStats["plans"].(float64); n < 2 {
		t.Fatalf("plan counter = %v, want >= 2", planStats["plans"])
	}
	byClass, _ := planStats["by_class"].(map[string]any)
	if byClass["entity"] == nil || byClass["trending"] == nil {
		t.Fatalf("by_class = %v", byClass)
	}
	ops, _ := planStats["ops"].(map[string]any)
	if ops["Scan"] == nil || ops["TrendScan"] == nil {
		t.Fatalf("ops = %v", ops)
	}
}

func TestAskEndpointDiffQuestion(t *testing.T) {
	ts := testServer(t)
	body := getData(t, ts.URL+"/api/v1/ask?q=What+changed+about+DJI+between+2011+and+2014%3F").(map[string]any)
	if body["class"] != "diff" {
		t.Fatalf("class = %v", body["class"])
	}
	if _, ok := body["data"].(map[string]any); !ok {
		t.Fatalf("diff data = %v", body["data"])
	}
}
