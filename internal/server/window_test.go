package server

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"nous"
)

// TestAskExecutorFailureIs500 pins the error mapping: parse failures are the
// client's fault (400), executor failures are the server's (500).
func TestAskExecutorFailureIs500(t *testing.T) {
	srv := New(testPipeline(t))
	srv.ask = func(q string, w nous.Window) (nous.Answer, error) {
		return nous.Answer{}, errors.New("executor exploded")
	}
	ts := serve(t, srv)
	env := getV1(t, ts.URL+"/api/v1/ask?q=Tell+me+about+DJI", 500, "internal")
	if msg := env["error"].(map[string]any)["message"].(string); !strings.Contains(msg, "executor exploded") {
		t.Fatalf("500 message = %q", msg)
	}
}

func TestAskParseFailureIs400(t *testing.T) {
	ts := testServer(t)
	// Real parse failure through the real pipeline.
	getV1(t, ts.URL+"/api/v1/ask?q=flarp+blonk+zibber", 400, "parse_error")
	// Invalid temporal qualifier is also a client error.
	getV1(t, ts.URL+"/api/v1/ask?q=Tell+me+about+DJI+between+2016+and+2015", 400, "parse_error")
}

func TestAskWindowParams(t *testing.T) {
	ts := testServer(t)
	text := func(path string) string {
		t.Helper()
		return getData(t, ts.URL+path).(map[string]any)["text"].(string)
	}
	// Omitted window == unwindowed; a bounded one adds a window line.
	plain := text("/api/v1/ask?q=Tell+me+about+DJI")
	full := text("/api/v1/ask?q=Tell+me+about+DJI&since=1900-01-01&until=2100-01-01")
	if plain == full {
		t.Fatal("bounded window answer should carry a window line")
	}
	if !strings.Contains(full, "window:") {
		t.Fatalf("windowed answer lacks window line: %s", full)
	}
	// A window before the corpus keeps only curated facts; the answer still
	// resolves the entity.
	if early := text("/api/v1/ask?q=Tell+me+about+DJI&until=1990-01-01"); !strings.Contains(early, "DJI") {
		t.Fatalf("early-window answer = %s", early)
	}
}

func TestEntityWindowParams(t *testing.T) {
	ts := testServer(t)
	entity := func(query string) map[string]any {
		t.Helper()
		return getData(t, ts.URL+"/api/v1/entity?entity=DJI"+query).(map[string]any)
	}
	plain := entity("")
	full := entity("&since=1900-01-01T00:00:00Z&until=2100-01-01T00:00:00Z")
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
	getV1(t, ts.URL+"/api/v1/entity?entity=DJI&since=not-a-date", 400, "bad_request")
	getV1(t, ts.URL+"/api/v1/entity?entity=DJI&since=2016-01-01&until=2015-01-01", 400, "bad_request")
	// A bare 4-digit value is a year (matching the question language), not
	// unix seconds: since=2015&until=2016 equals the 2015 calendar window.
	yr := entity("&since=2015&until=2016")
	day := entity("&since=2015-01-01&until=2016-01-01")
	if !reflect.DeepEqual(yr["Facts"], day["Facts"]) {
		t.Fatalf("since=2015 diverges from since=2015-01-01:\n%v\nvs\n%v", yr["Facts"], day["Facts"])
	}
	// Signed 4-character tokens are unix seconds, not years: since=-100 is
	// 100 seconds before the epoch and must parse (wide window, 200).
	entity("&since=-100")
}

func TestGraphWindowParams(t *testing.T) {
	ts := testServer(t)
	plain := rawData(t, ts.URL+"/api/v1/graph?entity=DJI")
	full := rawData(t, ts.URL+"/api/v1/graph?entity=DJI&since=1900-01-01&until=2100-01-01")
	if !bytes.Equal(plain, full) {
		t.Fatal("all-covering window changed the export")
	}
	// An empty window keeps only curated facts — a strict subset.
	narrow := rawData(t, ts.URL+"/api/v1/graph?entity=DJI&since=1971-01-01&until=1971-01-02")
	if len(narrow) > len(plain) {
		t.Fatalf("narrow export larger than full export (%d > %d)", len(narrow), len(plain))
	}
	if bytes.Contains(narrow, []byte(`"curated": false`)) {
		t.Fatal("extracted fact leaked into an empty window")
	}
	getV1(t, ts.URL+"/api/v1/graph?since=bogus", 400, "bad_request")
}

func TestRecentEndpoint(t *testing.T) {
	ts := testServer(t)
	feed := getData(t, ts.URL+"/api/v1/recent?k=5").([]any)
	if len(feed) == 0 || len(feed) > 5 {
		t.Fatalf("recent feed size = %d, want 1..5", len(feed))
	}
	prev := ""
	for _, f := range feed {
		tm, _ := f.(map[string]any)["time"].(string)
		if tm < prev {
			t.Fatalf("feed out of time order: %v", feed)
		}
		prev = tm
	}
	// Windowed feed respects the window; malformed params are 400.
	getData(t, ts.URL+"/api/v1/recent?k=5&since=2100-01-01")
	getV1(t, ts.URL+"/api/v1/recent?k=bogus", 400, "bad_request")
	getV1(t, ts.URL+"/api/v1/recent?since=junk", 400, "bad_request")
}

func TestStatsReportsTemporalIndex(t *testing.T) {
	ts := testServer(t)
	data := getData(t, ts.URL+"/api/v1/stats").(map[string]any)
	tmp, ok := data["temporal"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing temporal section: %v", data)
	}
	if tmp["edges"].(float64) == 0 {
		t.Fatal("temporal index empty after ingestion")
	}
	kgStats := data["kg"].(map[string]any)
	if tmp["edges"].(float64) != kgStats["Facts"].(float64) {
		t.Fatalf("index edges %v != kg facts %v", tmp["edges"], kgStats["Facts"])
	}
}
