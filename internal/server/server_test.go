package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nous"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	wcfg := nous.DefaultWorldConfig()
	wcfg.Companies = 10
	wcfg.People = 10
	wcfg.Products = 10
	wcfg.Events = 80
	w := nous.GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := nous.NewPipeline(kg, nous.DefaultConfig())
	p.IngestAll(nous.GenerateArticles(w, nous.DefaultArticleConfig(60)))
	ts := httptest.NewServer(New(p))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, res.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return body
}

func TestAskEndpoint(t *testing.T) {
	ts := testServer(t)
	body := getJSON(t, ts.URL+"/api/ask?q=Tell+me+about+DJI", 200)
	if body["class"] != "entity" {
		t.Fatalf("class = %v", body["class"])
	}
	if !strings.Contains(body["text"].(string), "DJI") {
		t.Fatalf("text = %v", body["text"])
	}
}

func TestAskRequiresQuery(t *testing.T) {
	ts := testServer(t)
	body := getJSON(t, ts.URL+"/api/ask", 400)
	if body["error"] == "" {
		t.Fatal("missing error message")
	}
}

func TestAskRejectsGibberish(t *testing.T) {
	ts := testServer(t)
	getJSON(t, ts.URL+"/api/ask?q=flarp+blonk", 400)
}

func TestEntityEndpoint(t *testing.T) {
	ts := testServer(t)
	body := getJSON(t, ts.URL+"/api/entity?name=DJI", 200)
	if body["Name"] != "DJI" {
		t.Fatalf("entity = %v", body)
	}
	getJSON(t, ts.URL+"/api/entity?name=Zorblatt+Nine", 404)
	getJSON(t, ts.URL+"/api/entity", 400)
}

func TestTrendingEndpoint(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/api/trending?k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var trendsBody []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&trendsBody); err != nil {
		t.Fatal(err)
	}
	if len(trendsBody) > 5 {
		t.Fatalf("k ignored: %d trends", len(trendsBody))
	}
}

func TestPatternsEndpoint(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/api/patterns?k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var ps []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&ps); err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no patterns served")
	}
	if ps[0]["pattern"] == "" || ps[0]["support"] == nil {
		t.Fatalf("pattern body = %v", ps[0])
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/api/explain?src=DJI&dst=Shenzhen")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status = %d", res.StatusCode)
	}
	var paths []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&paths); err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no explanation paths")
	}
	getJSON(t, ts.URL+"/api/explain?src=DJI", 400)
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	body := getJSON(t, ts.URL+"/api/stats", 200)
	kg, ok := body["kg"].(map[string]any)
	if !ok || kg["Facts"] == nil {
		t.Fatalf("stats body = %v", body)
	}
}

func TestGraphEndpoint(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/api/graph?entity=DJI")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var facts []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&facts); err != nil {
		t.Fatal(err)
	}
	if len(facts) == 0 {
		t.Fatal("no facts in DJI subgraph")
	}
	for _, f := range facts {
		if f["subject"] != "DJI" && f["object"] != "DJI" {
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
	for _, url := range []string{
		"/api/trending?k=abc",
		"/api/trending?k=-3",
		"/api/trending?k=0",
		"/api/patterns?k=x",
		"/api/patterns?k=-1",
		"/api/explain?src=DJI&dst=Shenzhen&k=nope",
	} {
		body := getJSON(t, ts.URL+url, 400)
		if body["error"] == "" {
			t.Fatalf("%s: missing error message", url)
		}
	}
}

func TestGraphUnknownEntityIs404(t *testing.T) {
	ts := testServer(t)
	body := getJSON(t, ts.URL+"/api/graph?entity=Zorblatt+Nine", 404)
	if !strings.Contains(body["error"].(string), "Zorblatt Nine") {
		t.Fatalf("error body = %v", body)
	}
	// Mixed known+unknown must fail wholesale, before any bytes stream.
	getJSON(t, ts.URL+"/api/graph?entity=DJI,Zorblatt+Nine", 404)
}

func TestStatsReportsQueryCache(t *testing.T) {
	ts := testServer(t)
	// Prime the cache through an entity query, then read stats.
	getJSON(t, ts.URL+"/api/ask?q=Tell+me+about+DJI", 200)
	body := getJSON(t, ts.URL+"/api/stats", 200)
	q, ok := body["query"].(map[string]any)
	if !ok {
		t.Fatalf("stats body missing query section: %v", body)
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
		return getJSON(t, ts.URL+"/api/stats", 200)["query"].(map[string]any)
	}
	getJSON(t, ts.URL+"/api/entity?name=DJI", 200) // warm the artifacts
	warm := readQuery()
	for i := 0; i < 5; i++ {
		getJSON(t, ts.URL+"/api/entity?name=DJI", 200)
	}
	after := readQuery()
	if warm["computes"] != after["computes"] {
		t.Fatalf("recomputed at an unchanged epoch: %v -> %v", warm["computes"], after["computes"])
	}
	if after["hits"].(float64) <= warm["hits"].(float64) {
		t.Fatalf("hits did not grow: %v -> %v", warm["hits"], after["hits"])
	}
}

func TestRequestTimeoutReturns503(t *testing.T) {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Companies, wcfg.People, wcfg.Products, wcfg.Events = 10, 10, 10, 80
	w := nous.GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := nous.NewPipeline(kg, nous.DefaultConfig())
	p.IngestAll(nous.GenerateArticles(w, nous.DefaultArticleConfig(30)))
	ts := httptest.NewServer(NewWithTimeout(p, time.Nanosecond))
	defer ts.Close()
	res, err := http.Get(ts.URL + "/api/ask?q=Tell+me+about+DJI")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 on timeout", res.StatusCode)
	}
	// The timeout body must honor the API's JSON error contract, not be
	// content-sniffed to text/plain.
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("timeout Content-Type = %q, want application/json", ct)
	}
	var body map[string]any
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] == "" {
		t.Fatal("timeout body is not the JSON error")
	}
}

// TestConcurrentAskDuringIngest serves mixed-class queries while IngestAll
// mutates the graph — the paper's core "query while it changes" scenario.
// Run under -race this exercises the whole read layer: epoch cache, linker,
// path search, miner and trends.
func TestConcurrentAskDuringIngest(t *testing.T) {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Companies, wcfg.People, wcfg.Products, wcfg.Events = 12, 12, 12, 160
	w := nous.GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := nous.NewPipeline(kg, nous.DefaultConfig())
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(120))
	p.IngestAll(arts[:20]) // warm start so queries have something to chew on
	ts := httptest.NewServer(New(p))
	defer ts.Close()

	queries := []string{
		"/api/ask?q=Tell+me+about+DJI",
		"/api/ask?q=What+is+trending%3F",
		"/api/ask?q=What+patterns+are+emerging%3F",
		"/api/ask?q=What+does+DJI+manufacture%3F",
		"/api/ask?q=How+is+Windermere+related+to+DJI%3F",
		"/api/stats",
		"/api/trending?k=5",
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
	body := getJSON(t, ts.URL+"/api/ask?q=Tell+me+about+DJI", 200)
	if body["class"] != "entity" {
		t.Fatalf("post-ingest ask class = %v", body["class"])
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
	body := getJSON(t, ts.URL+"/api/stats", 200)
	if _, present := body["persist"]; present {
		t.Fatalf("in-memory pipeline reports a persist section: %v", body["persist"])
	}
}

func TestStatsReportsPersistState(t *testing.T) {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Companies = 10
	wcfg.People = 10
	wcfg.Products = 10
	wcfg.Events = 80
	w := nous.GenerateWorld(wcfg)
	p, err := nous.OpenWithOptions(t.TempDir(), w.Ontology, nous.DefaultConfig(), nous.PersistOptions{
		FlushInterval:         time.Hour,
		DisableAutoCheckpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := w.SeedKG(p.KG()); err != nil {
		t.Fatal(err)
	}
	p.IngestAll(nous.GenerateArticles(w, nous.DefaultArticleConfig(20)))
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p))
	t.Cleanup(ts.Close)

	body := getJSON(t, ts.URL+"/api/stats", 200)
	ps, ok := body["persist"].(map[string]any)
	if !ok {
		t.Fatalf("stats body missing persist section: %v", body)
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
	body := getJSON(t, ts.URL+"/api/diff?asince=2011&auntil=2012&bsince=2014&buntil=2015", 200)
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
	body = getJSON(t, ts.URL+"/api/diff?entity=DJI&asince=2011&auntil=2012&bsince=2014&buntil=2015", 200)
	if data := body["data"].(map[string]any); data["entity"] != "DJI" {
		t.Fatalf("entity diff payload = %v", data)
	}

	// Error mapping: missing windows → 400, unknown entity → 404, malformed
	// bound → 400, inverted window → 400.
	getJSON(t, ts.URL+"/api/diff?asince=2011&auntil=2012", 400)
	getJSON(t, ts.URL+"/api/diff", 400)
	getJSON(t, ts.URL+"/api/diff?entity=Zorblatt+Unheard&asince=2011&auntil=2012&bsince=2014&buntil=2015", 404)
	getJSON(t, ts.URL+"/api/diff?asince=notadate&auntil=2012&bsince=2014&buntil=2015", 400)
	getJSON(t, ts.URL+"/api/diff?asince=2012&auntil=2011&bsince=2014&buntil=2015", 400)
}

func TestPlanEndpoint(t *testing.T) {
	ts := testServer(t)
	body := getJSON(t, ts.URL+"/api/plan?q=Tell+me+about+DJI&since=2014&until=2015", 200)
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
	body = getJSON(t, ts.URL+"/api/plan?q=What+changed+about+DJI+between+2014+and+2015%3F", 200)
	root = body["root"].(map[string]any)
	if root["op"] != "Diff" || len(root["inputs"].([]any)) != 2 {
		t.Fatalf("diff plan root = %v", root)
	}

	// Parse failures are the client's fault.
	getJSON(t, ts.URL+"/api/plan?q=flarp+blonk+quux", 400)
	getJSON(t, ts.URL+"/api/plan", 400)
}

func TestTrendingEndpointWindowedBackfill(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/api/trending?k=5&since=2011&until=2015")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status = %d", res.StatusCode)
	}
	var trends []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&trends); err != nil {
		t.Fatal(err)
	}
	if len(trends) == 0 {
		t.Fatal("windowed backfill found nothing in a four-year window")
	}
	if len(trends) > 5 {
		t.Fatalf("k ignored: %d trends", len(trends))
	}
	// Malformed window still 400s.
	getJSON(t, ts.URL+"/api/trending?since=2015&until=2011", 400)
}

func TestStatsReportsPlanCounters(t *testing.T) {
	ts := testServer(t)
	getJSON(t, ts.URL+"/api/ask?q=Tell+me+about+DJI", 200)
	getJSON(t, ts.URL+"/api/ask?q=What+is+trending%3F", 200)
	body := getJSON(t, ts.URL+"/api/stats", 200)
	planStats, ok := body["plan"].(map[string]any)
	if !ok {
		t.Fatalf("stats lack plan section: %v", body)
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
	body := getJSON(t, ts.URL+"/api/ask?q=What+changed+about+DJI+between+2011+and+2014%3F", 200)
	if body["class"] != "diff" {
		t.Fatalf("class = %v", body["class"])
	}
	if _, ok := body["data"].(map[string]any); !ok {
		t.Fatalf("diff data = %v", body["data"])
	}
}
