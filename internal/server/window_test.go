package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"nous"
)

// smallPipeline builds the same pipeline testServer wraps, for tests that
// need the Server value itself (not just a running httptest server).
func smallPipeline(t *testing.T) *nous.Pipeline {
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
	return p
}

func getBody(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body %s)", url, res.StatusCode, wantStatus, b)
	}
	return string(b)
}

// TestAskExecutorFailureIs500 pins the error mapping: parse failures are the
// client's fault (400), executor failures are the server's (500).
func TestAskExecutorFailureIs500(t *testing.T) {
	srv := New(smallPipeline(t))
	srv.ask = func(q string, w nous.Window) (nous.Answer, error) {
		return nous.Answer{}, errors.New("executor exploded")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := getBody(t, ts.URL+"/api/ask?q=Tell+me+about+DJI", 500)
	if !strings.Contains(body, "executor exploded") {
		t.Fatalf("500 body = %s", body)
	}
}

func TestAskParseFailureIs400(t *testing.T) {
	ts := httptest.NewServer(New(smallPipeline(t)))
	defer ts.Close()
	// Real parse failure through the real pipeline.
	body := getBody(t, ts.URL+"/api/ask?q=flarp+blonk+zibber", 400)
	if !strings.Contains(body, "error") {
		t.Fatalf("400 body = %s", body)
	}
	// Invalid temporal qualifier is also a client error.
	getBody(t, ts.URL+"/api/ask?q=Tell+me+about+DJI+between+2016+and+2015", 400)
}

func TestAskWindowParams(t *testing.T) {
	ts := httptest.NewServer(New(smallPipeline(t)))
	defer ts.Close()
	// Omitted window == unwindowed, byte for byte.
	plain := getBody(t, ts.URL+"/api/ask?q=Tell+me+about+DJI", 200)
	full := getBody(t, ts.URL+"/api/ask?q=Tell+me+about+DJI&since=1900-01-01&until=2100-01-01", 200)
	if plain == full {
		t.Fatal("bounded window answer should carry a window line")
	}
	if !strings.Contains(full, "window:") {
		t.Fatalf("windowed answer lacks window line: %s", full)
	}
	// A window before the corpus keeps only curated facts; the answer still
	// resolves the entity.
	early := getBody(t, ts.URL+"/api/ask?q=Tell+me+about+DJI&until=1990-01-01", 200)
	if !strings.Contains(early, "DJI") {
		t.Fatalf("early-window answer = %s", early)
	}
}

func TestEntityWindowParams(t *testing.T) {
	ts := httptest.NewServer(New(smallPipeline(t)))
	defer ts.Close()
	plain := getJSON(t, ts.URL+"/api/entity?name=DJI", 200)
	full := getJSON(t, ts.URL+"/api/entity?name=DJI&since="+
		"1900-01-01T00:00:00Z&until=2100-01-01T00:00:00Z", 200)
	// Same summary either way: the corpus lies entirely inside the window.
	// Importance goes through the windowed PageRank artifact, which keeps
	// every edge of the same compiled view and sums them in the same order
	// as the unwindowed one, so it is compared exactly.
	if plain["Name"] != full["Name"] || plain["Type"] != full["Type"] {
		t.Fatalf("all-covering window changed identity: %v vs %v", plain, full)
	}
	if !reflect.DeepEqual(plain["Facts"], full["Facts"]) {
		t.Fatalf("all-covering window changed the facts:\n%v\nvs\n%v", plain["Facts"], full["Facts"])
	}
	if plain["Importance"].(float64) != full["Importance"].(float64) {
		t.Fatalf("all-covering window changed importance: %v vs %v", plain["Importance"], full["Importance"])
	}
	getBody(t, ts.URL+"/api/entity?name=DJI&since=not-a-date", 400)
	getBody(t, ts.URL+"/api/entity?name=DJI&since=2016-01-01&until=2015-01-01", 400)
	// A bare 4-digit value is a year (matching the question language), not
	// unix seconds: since=2015&until=2016 equals the 2015 calendar window.
	yr := getJSON(t, ts.URL+"/api/entity?name=DJI&since=2015&until=2016", 200)
	day := getJSON(t, ts.URL+"/api/entity?name=DJI&since=2015-01-01&until=2016-01-01", 200)
	if !reflect.DeepEqual(yr["Facts"], day["Facts"]) {
		t.Fatalf("since=2015 diverges from since=2015-01-01:\n%v\nvs\n%v", yr["Facts"], day["Facts"])
	}
	// Signed 4-character tokens are unix seconds, not years: since=-100 is
	// 100 seconds before the epoch and must parse (wide window, 200).
	getBody(t, ts.URL+"/api/entity?name=DJI&since=-100", 200)
}

func TestGraphWindowParams(t *testing.T) {
	ts := httptest.NewServer(New(smallPipeline(t)))
	defer ts.Close()
	plain := getBody(t, ts.URL+"/api/graph?entity=DJI", 200)
	full := getBody(t, ts.URL+"/api/graph?entity=DJI&since=1900-01-01&until=2100-01-01", 200)
	if plain != full {
		t.Fatal("all-covering window changed the export")
	}
	// An empty window keeps only curated facts — a strict subset.
	narrow := getBody(t, ts.URL+"/api/graph?entity=DJI&since=1971-01-01&until=1971-01-02", 200)
	if len(narrow) > len(plain) {
		t.Fatalf("narrow export larger than full export (%d > %d)", len(narrow), len(plain))
	}
	if strings.Contains(narrow, `"curated": false`) {
		t.Fatal("extracted fact leaked into an empty window")
	}
	getBody(t, ts.URL+"/api/graph?since=bogus", 400)
}

func TestRecentEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(smallPipeline(t)))
	defer ts.Close()
	res, err := http.Get(ts.URL + "/api/recent?k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var feed []map[string]any
	if err := json.NewDecoder(res.Body).Decode(&feed); err != nil {
		t.Fatal(err)
	}
	if len(feed) == 0 || len(feed) > 5 {
		t.Fatalf("recent feed size = %d, want 1..5", len(feed))
	}
	prev := ""
	for _, f := range feed {
		tm, _ := f["time"].(string)
		if tm < prev {
			t.Fatalf("feed out of time order: %v", feed)
		}
		prev = tm
	}
	// Windowed feed respects the window; malformed params are 400.
	getBody(t, ts.URL+"/api/recent?k=5&since=2100-01-01", 200)
	getBody(t, ts.URL+"/api/recent?k=bogus", 400)
	getBody(t, ts.URL+"/api/recent?since=junk", 400)
}

func TestStatsReportsTemporalIndex(t *testing.T) {
	ts := httptest.NewServer(New(smallPipeline(t)))
	defer ts.Close()
	body := getJSON(t, ts.URL+"/api/stats", 200)
	tmp, ok := body["temporal"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing temporal section: %v", body)
	}
	if tmp["edges"].(float64) == 0 {
		t.Fatal("temporal index empty after ingestion")
	}
	kgStats := body["kg"].(map[string]any)
	if tmp["edges"].(float64) != kgStats["Facts"].(float64) {
		t.Fatalf("index edges %v != kg facts %v", tmp["edges"], kgStats["Facts"])
	}
}
