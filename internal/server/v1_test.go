package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nous"
	"nous/internal/plan"
)

var update = flag.Bool("update", false, "rewrite the v1 golden files")

// v1GoldenCases are the requests TestV1Golden pins; TestV1WireFormat checks
// their framing.
var v1GoldenCases = []struct {
	name, path string
}{
	{"ask_entity", "/api/v1/ask?q=Tell+me+about+DJI"},
	{"ask_missing_q", "/api/v1/ask"},
	{"ask_parse_error", "/api/v1/ask?q=flarp+blonk"},
	{"entity", "/api/v1/entity?entity=DJI"},
	{"entity_unknown", "/api/v1/entity?entity=Zorblatt+Nine"},
	{"entity_missing_name", "/api/v1/entity"},
	{"trending_windowed", "/api/v1/trending?k=3&since=2011&until=2015"},
	{"trending_bad_k", "/api/v1/trending?k=abc"},
	{"patterns", "/api/v1/patterns?k=3"},
	{"plan", "/api/v1/plan?q=Tell+me+about+DJI&since=2014&until=2015"},
	{"recent", "/api/v1/recent?k=5"},
	{"diff", "/api/v1/diff?entity=DJI&asince=2011&auntil=2012&bsince=2014&buntil=2015"},
	{"diff_missing_window", "/api/v1/diff?asince=2011&auntil=2012"},
	{"graph", "/api/v1/graph?entity=DJI"},
	{"graph_unknown", "/api/v1/graph?entity=Zorblatt+Nine"},
}

// TestV1Golden pins the payload of fifteen representative requests byte for
// byte against committed golden files: the data section of a success or the
// error object of a failure, indented at top level. meta (epoch, window,
// took_ms) is checked by the envelope tests, not here. Regenerate with
// `go test ./internal/server -run V1Golden -update` only for a deliberate,
// documented break.
func TestV1Golden(t *testing.T) {
	ts := testServer(t) // deterministic seeded world + article stream
	for _, tc := range v1GoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			_, data, errObj := rawV1(t, ts.URL+tc.path)
			payload := data
			if string(errObj) != "null" {
				payload = errObj
			}
			var got bytes.Buffer
			if err := json.Indent(&got, payload, "", "  "); err != nil {
				t.Fatal(err)
			}
			got.WriteByte('\n')
			golden := filepath.Join("testdata", "v1_"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to record): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("GET %s drifted from the pinned payload\ngot:  %s\nwant: %s",
					tc.path, got.Bytes(), want)
			}
		})
	}
}

// envelopeOf decodes a v1 response and checks the envelope invariants: all
// three keys present, data and error mutually exclusive.
func envelopeOf(t *testing.T, res *http.Response) map[string]any {
	t.Helper()
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("v1 Content-Type = %q, want application/json", ct)
	}
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("v1 body is not JSON: %v\n%s", err, raw)
	}
	for _, key := range []string{"data", "error", "meta"} {
		if _, ok := env[key]; !ok {
			t.Fatalf("envelope missing %q: %s", key, raw)
		}
	}
	if env["data"] != nil && env["error"] != nil {
		t.Fatalf("envelope has both data and error: %s", raw)
	}
	meta, ok := env["meta"].(map[string]any)
	if !ok {
		t.Fatalf("meta is not an object: %s", raw)
	}
	for _, key := range []string{"epoch", "window", "took_ms"} {
		if _, ok := meta[key]; !ok {
			t.Fatalf("meta missing %q: %s", key, raw)
		}
	}
	return env
}

func getV1(t *testing.T, url string, wantStatus int, wantCode string) map[string]any {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != wantStatus {
		res.Body.Close()
		t.Fatalf("GET %s = %d, want %d", url, res.StatusCode, wantStatus)
	}
	env := envelopeOf(t, res)
	if wantCode == "" {
		if env["error"] != nil {
			t.Fatalf("GET %s: unexpected error %v", url, env["error"])
		}
	} else {
		e, ok := env["error"].(map[string]any)
		if !ok || e["code"] != wantCode {
			t.Fatalf("GET %s: error = %v, want code %q", url, env["error"], wantCode)
		}
		if e["message"] == "" {
			t.Fatalf("GET %s: empty error message", url)
		}
	}
	return env
}

// getData fetches a successful v1 response and returns its decoded data.
func getData(t *testing.T, url string) any {
	t.Helper()
	return getV1(t, url, http.StatusOK, "")["data"]
}

// rawV1 fetches url and returns the status and the envelope's data and
// error sections as sent ("null" when empty), for byte comparisons.
func rawV1(t *testing.T, url string) (status int, data, errObj json.RawMessage) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var env struct {
		Data  json.RawMessage `json:"data"`
		Error json.RawMessage `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return res.StatusCode, env.Data, env.Error
}

// rawData is the data section of a successful v1 response, as sent.
func rawData(t *testing.T, url string) json.RawMessage {
	t.Helper()
	status, data, errObj := rawV1(t, url)
	if status != http.StatusOK || string(errObj) != "null" {
		t.Fatalf("GET %s = %d, error %s", url, status, errObj)
	}
	return data
}

func TestV1EnvelopeSuccess(t *testing.T) {
	ts := testServer(t)
	env := getV1(t, ts.URL+"/api/v1/ask?q=Tell+me+about+DJI", 200, "")
	data, ok := env["data"].(map[string]any)
	if !ok || data["class"] != "entity" {
		t.Fatalf("data = %v", env["data"])
	}
	if env["meta"].(map[string]any)["epoch"].(float64) == 0 {
		t.Fatal("meta.epoch = 0 after ingestion")
	}

	// A windowed request surfaces its parsed window in meta.
	env = getV1(t, ts.URL+"/api/v1/recent?k=3&since=2011&until=2015", 200, "")
	win, ok := env["meta"].(map[string]any)["window"].(map[string]any)
	if !ok || win["since"] == nil || win["until"] == nil {
		t.Fatalf("meta.window = %v", env["meta"])
	}
	// An unwindowed request keeps the key, as null.
	env = getV1(t, ts.URL+"/api/v1/recent?k=3", 200, "")
	if w := env["meta"].(map[string]any)["window"]; w != nil {
		t.Fatalf("unwindowed meta.window = %v, want null", w)
	}
}

func TestV1ErrorCodes(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/api/v1/ask", 400, "bad_request"},
		{"/api/v1/ask?q=flarp+blonk", 400, "parse_error"},
		{"/api/v1/ask?q=Tell+me+about+DJI&since=2015&until=2011", 400, "bad_request"},
		{"/api/v1/entity", 400, "bad_request"},
		{"/api/v1/entity?entity=Zorblatt+Nine", 404, "unknown_entity"},
		{"/api/v1/trending?k=abc", 400, "bad_request"},
		{"/api/v1/graph?entity=Zorblatt+Nine", 404, "unknown_entity"},
		{"/api/v1/diff?asince=2011&auntil=2012", 400, "bad_request"},
		{"/api/v1/plan?q=flarp+blonk", 400, "parse_error"},
		{"/api/v1/nonsuch", 404, "bad_request"},
		{"/api/ask?q=Tell+me+about+DJI", 404, "bad_request"},
	} {
		env := getV1(t, ts.URL+tc.path, tc.status, tc.code)
		if env["data"] != nil {
			t.Fatalf("GET %s: error response carries data: %v", tc.path, env["data"])
		}
	}
}

// TestV1EntityParam: the entity summary names its parameter "entity"
// (consistent with /api/v1/graph).
func TestV1EntityParam(t *testing.T) {
	ts := testServer(t)
	env := getV1(t, ts.URL+"/api/v1/entity?entity=DJI", 200, "")
	if env["data"].(map[string]any)["Name"] != "DJI" {
		t.Fatalf("data = %v", env["data"])
	}
	env = getV1(t, ts.URL+"/api/v1/entity", 400, "bad_request")
	if msg := env["error"].(map[string]any)["message"]; msg != "missing entity parameter" {
		t.Fatalf("message = %v", msg)
	}
}

// TestV1TimeoutEnvelope: a timed-out request must still produce the
// envelope with the timeout code. The ask seam blocks until the test has
// read the response, so the handler can never beat the deadline.
func TestV1TimeoutEnvelope(t *testing.T) {
	s := NewWithTimeout(nous.NewPipeline(nous.NewKG(nil), nous.DefaultConfig()), time.Nanosecond)
	read := make(chan struct{})
	defer close(read)
	s.ask = func(string, nous.Window) (nous.Answer, error) {
		<-read
		return nous.Answer{}, nil
	}
	ts := serve(t, s)
	res, err := http.Get(ts.URL + "/api/v1/ask?q=Tell+me+about+DJI")
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusServiceUnavailable {
		res.Body.Close()
		t.Fatalf("status = %d, want 503", res.StatusCode)
	}
	env := envelopeOf(t, res)
	e, ok := env["error"].(map[string]any)
	if !ok || e["code"] != "timeout" {
		t.Fatalf("timeout error = %v, want code timeout", env["error"])
	}
}

// TestV1PanicRecoveryEnvelope: a handler panic must become a 500 envelope,
// not a dropped connection.
func TestV1PanicRecoveryEnvelope(t *testing.T) {
	s := New(nous.NewPipeline(nous.NewKG(nil), nous.DefaultConfig()))
	s.ask = func(string, nous.Window) (nous.Answer, error) { panic("boom") }
	ts := serve(t, s)
	getV1(t, ts.URL+"/api/v1/ask?q=Tell+me+about+DJI", 500, "internal")
}

// TestV1EncodeFailureIs500: an answer that cannot be encoded (JSON has no
// NaN) is a 500 internal envelope, not a 200 with an empty body.
func TestV1EncodeFailureIs500(t *testing.T) {
	s := New(nous.NewPipeline(nous.NewKG(nil), nous.DefaultConfig()))
	s.ask = func(string, nous.Window) (nous.Answer, error) {
		return nous.Answer{Class: "fact", Fact: &plan.FactAnswer{Plausible: math.NaN()}}, nil
	}
	ts := serve(t, s)
	env := getV1(t, ts.URL+"/api/v1/ask?q=Did+DJI+acquire+Windermere%3F", 500, "internal")
	if msg := env["error"].(map[string]any)["message"].(string); !strings.Contains(msg, "NaN") {
		t.Fatalf("500 message = %q, want the encoding error", msg)
	}
}

// requireCompact fails t unless body is one compact JSON value and a
// newline: the single wire format of every v1 envelope.
func requireCompact(t *testing.T, what string, body []byte) {
	t.Helper()
	value, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok {
		t.Fatalf("%s: body does not end in a newline: %q", what, body)
	}
	var c bytes.Buffer
	if err := json.Compact(&c, value); err != nil {
		t.Fatalf("%s: body is not JSON: %v\n%s", what, err, body)
	}
	if !bytes.Equal(c.Bytes(), value) {
		t.Fatalf("%s: body is not compact:\n%s", what, body)
	}
}

// TestV1WireFormat: every v1 envelope — success, client error, panic (500)
// and timeout (503) — goes out compact and length-framed, never chunked. A
// real listener is needed: only net/http decides between Content-Length
// and chunked framing.
func TestV1WireFormat(t *testing.T) {
	check := func(t *testing.T, url string, wantStatus int) {
		t.Helper()
		res, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		if wantStatus != 0 && res.StatusCode != wantStatus {
			t.Fatalf("GET %s = %d, want %d", url, res.StatusCode, wantStatus)
		}
		if len(res.TransferEncoding) > 0 {
			t.Errorf("GET %s: Transfer-Encoding %v, want a Content-Length", url, res.TransferEncoding)
		}
		if res.ContentLength != int64(len(body)) {
			t.Errorf("GET %s: Content-Length %d, body %d bytes", url, res.ContentLength, len(body))
		}
		requireCompact(t, "GET "+url, body)
	}

	ts := testServer(t)
	for _, tc := range v1GoldenCases {
		t.Run(tc.name, func(t *testing.T) { check(t, ts.URL+tc.path, 0) })
	}
	t.Run("panic", func(t *testing.T) {
		s := New(nous.NewPipeline(nous.NewKG(nil), nous.DefaultConfig()))
		s.ask = func(string, nous.Window) (nous.Answer, error) { panic("boom") }
		check(t, serve(t, s).URL+"/api/v1/ask?q=Tell+me+about+DJI", http.StatusInternalServerError)
	})
	t.Run("timeout", func(t *testing.T) {
		s := NewWithTimeout(nous.NewPipeline(nous.NewKG(nil), nous.DefaultConfig()), time.Nanosecond)
		check(t, serve(t, s).URL+"/api/v1/ask?q=Tell+me+about+DJI", http.StatusServiceUnavailable)
	})
}

// BenchmarkV1AskEntity measures one entity question through the whole
// handler stack — routing, timeout wrapper, answer and envelope encoding —
// and the size of the response it sends.
func BenchmarkV1AskEntity(b *testing.B) {
	srv := New(testPipeline(b))
	r := httptest.NewRequest("GET", "/api/v1/ask?q=Tell+me+about+DJI", nil)
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		n += rec.Body.Len()
	}
	b.ReportMetric(float64(n)/float64(b.N), "bytes/response")
}

func TestV1StatsReplicationStandalone(t *testing.T) {
	ts := testServer(t)
	env := getV1(t, ts.URL+"/api/v1/stats", 200, "")
	data := env["data"].(map[string]any)
	if data["kg"] == nil || data["plan"] == nil {
		t.Fatalf("v1 stats missing kg/plan sections: %v", data)
	}
	repl, ok := data["replication"].(map[string]any)
	if !ok {
		t.Fatalf("v1 stats missing replication section: %v", data)
	}
	if repl["role"] != "standalone" || repl["lag"].(float64) != 0 {
		t.Fatalf("standalone replication section = %v", repl)
	}
}

func TestV1FactsWrite(t *testing.T) {
	kg := nous.NewKG(nil) // default ontology
	ts := serve(t, New(nous.NewPipeline(kg, nous.DefaultConfig())))

	post := func(body string) (*http.Response, error) {
		return http.Post(ts.URL+"/api/v1/facts", "application/json", strings.NewReader(body))
	}

	res, err := post(`{"facts": [
		{"subject": "acme corp", "predicate": "partnersWith", "object": "globex",
		 "confidence": 0.9, "source": "api", "time": "2015-06-12"},
		{"subject": "globex", "predicate": "noSuchPredicate", "object": "initech"}
	]}`)
	if err != nil {
		t.Fatal(err)
	}
	env := envelopeOf(t, res)
	data := env["data"].(map[string]any)
	if data["added"].(float64) != 1 {
		t.Fatalf("added = %v, want 1 (second fact has an unknown predicate)", data["added"])
	}
	results := data["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	if results[1].(map[string]any)["error"] == nil {
		t.Fatal("bad predicate did not surface a per-fact error")
	}
	if kg.NumFacts() != 1 {
		t.Fatalf("kg facts = %d, want 1", kg.NumFacts())
	}

	// The write is live: the entity answers immediately.
	getV1(t, ts.URL+"/api/v1/entity?entity=acme+corp", 200, "")

	// Malformed body → parse_error; empty facts → bad_request; incomplete
	// fact → bad_request.
	for _, tc := range []struct {
		body, code string
	}{
		{`{"facts": [`, "parse_error"},
		{`{"facts": []}`, "bad_request"},
		{`{"facts": [{"subject": "a"}]}`, "bad_request"},
	} {
		res, err := post(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		env := envelopeOf(t, res)
		if e, ok := env["error"].(map[string]any); !ok || e["code"] != tc.code {
			t.Fatalf("POST %s: error = %v, want %s", tc.body, env["error"], tc.code)
		}
	}
}

// TestV1WALRequiresDurable: the replication endpoints on an in-memory
// pipeline answer with the envelope, not a stream.
func TestV1WALRequiresDurable(t *testing.T) {
	ts := testServer(t)
	getV1(t, ts.URL+"/api/v1/wal", 404, "bad_request")
	getV1(t, ts.URL+"/api/v1/snapshot", 404, "bad_request")
	getV1(t, ts.URL+"/api/v1/wal?from=nope", 404, "bad_request")
}

// tookMS strips the one legitimately nondeterministic envelope field so
// leader and follower responses can be compared byte for byte.
var tookMS = regexp.MustCompile(`"took_ms":\s*\d+`)

func normalizeTook(b []byte) []byte {
	return tookMS.ReplaceAll(b, []byte(`"took_ms": 0`))
}

// openLeader opens a durable pipeline over dir with testWorld's ontology,
// checkpointing only when asked. An empty dir is seeded with the curated KB
// and the first articles of the stream; a non-empty one is only recovered.
func openLeader(t *testing.T, dir string, articles int) *nous.Pipeline {
	t.Helper()
	w := testWorld()
	p, err := nous.OpenWithOptions(dir, w.Ontology, nous.DefaultConfig(), nous.PersistOptions{
		FlushInterval:         time.Hour,
		DisableAutoCheckpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if p.KG().NumFacts() == 0 {
		if err := w.SeedKG(p.KG()); err != nil {
			t.Fatal(err)
		}
		p.IngestAll(nous.GenerateArticles(w, nous.DefaultArticleConfig(articles)))
	}
	return p
}

// followLeader serves leader behind a real server and stands up a follower
// pipeline bootstrapped and tailing through that server's /api/v1/snapshot
// and /api/v1/wal endpoints, converged at return.
func followLeader(t *testing.T, leader *nous.Pipeline) (follower *nous.Pipeline, lts, fts *httptest.Server) {
	t.Helper()
	lts = serve(t, New(leader))
	src := leader.WALSource()
	if src == nil {
		t.Fatal("durable pipeline has no WAL source")
	}
	src.Poll = 5 * time.Millisecond
	src.Heartbeat = 20 * time.Millisecond

	f, err := nous.Follow(context.Background(), lts.URL, testWorld().Ontology, nous.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fts = serve(t, New(f))

	waitReplicaConverged(t, f, leader)
	return f, lts, fts
}

// newReplicaPair is a fresh durable leader with articles ingested, and its
// converged follower.
func newReplicaPair(t *testing.T, articles int) (leader, follower *nous.Pipeline, lts, fts *httptest.Server) {
	t.Helper()
	leader = openLeader(t, t.TempDir(), articles)
	follower, lts, fts = followLeader(t, leader)
	return leader, follower, lts, fts
}

func waitReplicaConverged(t *testing.T, f, leader *nous.Pipeline) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// A follower that converged through a bootstrap reopens its WAL
		// tail only after MinBackoff, so convergence includes Connected.
		if st := f.Follower().Status(); st.Connected && st.AppliedEpoch == leader.KG().Graph().Epoch() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := f.Follower().Status()
	t.Fatalf("replica never converged: applied=%d leader=%d connected=%v",
		st.AppliedEpoch, leader.KG().Graph().Epoch(), st.Connected)
}

// TestReplicaServesIdenticalReads is the tentpole's acceptance check: at
// the same applied epoch, leader and follower answer /api/v1/graph and
// /api/v1/ask byte-identically (modulo took_ms).
func TestReplicaServesIdenticalReads(t *testing.T) {
	_, follower, lts, fts := newReplicaPair(t, 60)

	fetch := func(base, path string) []byte {
		t.Helper()
		res, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("GET %s%s = %d", base, path, res.StatusCode)
		}
		b, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return normalizeTook(b)
	}

	for _, path := range []string{
		"/api/v1/graph?entity=DJI",
		"/api/v1/ask?q=Tell+me+about+DJI",
		"/api/v1/entity?entity=DJI",
		"/api/v1/recent?k=10",
	} {
		lb := fetch(lts.URL, path)
		fb := fetch(fts.URL, path)
		if !bytes.Equal(lb, fb) {
			t.Errorf("leader and follower disagree on %s\nleader:   %s\nfollower: %s", path, lb, fb)
		}
	}

	// The replication sections tell the two roles apart.
	env := getV1(t, lts.URL+"/api/v1/stats", 200, "")
	if role := env["data"].(map[string]any)["replication"].(map[string]any)["role"]; role != "leader" {
		t.Fatalf("leader role = %v", role)
	}
	env = getV1(t, fts.URL+"/api/v1/stats", 200, "")
	rs := env["data"].(map[string]any)["replication"].(map[string]any)
	if rs["role"] != "follower" || rs["lag"].(float64) != 0 || rs["connected"] != true {
		t.Fatalf("follower replication section = %v", rs)
	}
	if rs["applied_epoch"].(float64) == 0 {
		t.Fatal("follower applied_epoch = 0 after convergence")
	}

	// The follower keeps tracking live leader writes.
	fp := follower.Follower()
	if fp == nil {
		t.Fatal("follower pipeline lost its follower handle")
	}
}

// TestReplicaRejectsWrites: every write path on a read replica answers 403
// read_only_replica in the envelope.
func TestReplicaRejectsWrites(t *testing.T) {
	_, _, _, fts := newReplicaPair(t, 20)
	res, err := http.Post(fts.URL+"/api/v1/facts", "application/json",
		strings.NewReader(`{"facts": [{"subject": "a", "predicate": "partnersWith", "object": "b"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusForbidden {
		res.Body.Close()
		t.Fatalf("replica write status = %d, want 403", res.StatusCode)
	}
	env := envelopeOf(t, res)
	if e, ok := env["error"].(map[string]any); !ok || e["code"] != "read_only_replica" {
		t.Fatalf("replica write error = %v, want read_only_replica", env["error"])
	}
}

// TestReplicaTracksLiveWrites: writes POSTed to the leader through the API
// propagate to the follower, keeping derived reads in lockstep.
func TestReplicaTracksLiveWrites(t *testing.T) {
	leader, follower, lts, fts := newReplicaPair(t, 20)

	res, err := http.Post(lts.URL+"/api/v1/facts", "application/json",
		strings.NewReader(`{"facts": [{"subject": "DJI", "predicate": "acquired",
			"object": "Windermere", "confidence": 0.95, "source": "newswire", "time": "2015-03-01"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	env := envelopeOf(t, res)
	if env["error"] != nil {
		t.Fatalf("leader write failed: %v", env["error"])
	}
	waitReplicaConverged(t, follower, leader)

	lb := getV1(t, lts.URL+"/api/v1/ask?q=Did+DJI+acquire+Windermere%3F", 200, "")
	fb := getV1(t, fts.URL+"/api/v1/ask?q=Did+DJI+acquire+Windermere%3F", 200, "")
	lt, ft := lb["data"].(map[string]any)["text"], fb["data"].(map[string]any)["text"]
	if lt != ft {
		t.Fatalf("leader and follower disagree on the new fact:\nleader:   %v\nfollower: %v", lt, ft)
	}
	if s, _ := lt.(string); !strings.Contains(strings.ToLower(s), "yes") {
		t.Fatalf("leader does not confirm the written fact: %v", lt)
	}
}

// TestWarmLeaderMatchesColdReplica: importance is exact at its epoch. A
// leader that served entity answers before a write and a follower that never
// served one answer byte-identically once both reach the write's epoch —
// windowed and unwindowed, on /api/v1/entity and /api/v1/ask.
func TestWarmLeaderMatchesColdReplica(t *testing.T) {
	leader, follower, lts, fts := newReplicaPair(t, 60)
	paths := []string{
		"/api/v1/entity?entity=DJI",
		"/api/v1/entity?entity=DJI&since=2011-01-01&until=2014-01-01",
		"/api/v1/ask?q=Tell+me+about+DJI",
		"/api/v1/ask?q=Tell+me+about+DJI&since=2011-01-01&until=2014-01-01",
	}
	fetch := func(base, path string) []byte {
		t.Helper()
		res, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		b, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != 200 {
			t.Fatalf("GET %s%s = %d: %s", base, path, res.StatusCode, b)
		}
		return normalizeTook(b)
	}
	for _, path := range paths[:2] {
		fetch(lts.URL, path) // warm the leader's importance artifacts
	}

	res, err := http.Post(lts.URL+"/api/v1/facts", "application/json", strings.NewReader(`{"facts": [
		{"subject": "Skyline Ventures", "predicate": "invests", "object": "DJI", "curated": true},
		{"subject": "Harbor Capital", "predicate": "invests", "object": "DJI", "confidence": 0.9, "source": "newswire", "time": "2012-04-02"},
		{"subject": "DJI", "predicate": "partnersWith", "object": "Skyline Ventures", "confidence": 0.9, "source": "newswire", "time": "2012-04-03"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if env := envelopeOf(t, res); env["error"] != nil {
		t.Fatalf("leader write failed: %v", env["error"])
	}
	waitReplicaConverged(t, follower, leader)

	for _, path := range paths {
		if lb, fb := fetch(lts.URL, path), fetch(fts.URL, path); !bytes.Equal(lb, fb) {
			t.Errorf("warm leader and cold follower disagree on %s\nleader:   %s\nfollower: %s", path, lb, fb)
		}
	}
}

// TestClockFollowsFactLog: the pipeline clock — what "last year" and an
// entity's recent-activity buckets resolve against — is the newest dated
// fact in the log, on every node. A reopened leader, which ingested nothing
// in its own process, agrees with a fresh follower; a POSTed fact dated past
// the stream moves the leader's clock as it moves the follower's.
func TestClockFollowsFactLog(t *testing.T) {
	const lastYear = "/api/v1/ask?q=Tell+me+about+DJI+last+year"
	agree := func(t *testing.T, lts, fts *httptest.Server) {
		t.Helper()
		for _, path := range []string{"/api/v1/entity?entity=DJI", lastYear} {
			if lb, fb := rawData(t, lts.URL+path), rawData(t, fts.URL+path); !bytes.Equal(lb, fb) {
				t.Errorf("leader and follower disagree on %s\nleader:   %s\nfollower: %s", path, lb, fb)
			}
		}
	}

	t.Run("reopened_leader", func(t *testing.T) {
		dir := t.TempDir()
		openLeader(t, dir, 60).Close()
		_, lts, fts := followLeader(t, openLeader(t, dir, 0))
		agree(t, lts, fts)
	})

	t.Run("late_dated_post", func(t *testing.T) {
		leader, follower, lts, fts := newReplicaPair(t, 60)
		before := rawData(t, lts.URL+lastYear)
		res, err := http.Post(lts.URL+"/api/v1/facts", "application/json", strings.NewReader(`{"facts": [
			{"subject": "DJI", "predicate": "acquired", "object": "Windermere", "confidence": 0.95, "source": "newswire", "time": "2017-03-01"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		if data, _ := envelopeOf(t, res)["data"].(map[string]any); data == nil || data["added"] != 1.0 {
			t.Fatalf("leader write not accepted: %v", data)
		}
		waitReplicaConverged(t, follower, leader)
		if bytes.Equal(before, rawData(t, lts.URL+lastYear)) {
			t.Errorf("a fact dated past the stream did not move the leader's \"last year\": %s", before)
		}
		agree(t, lts, fts)
	})
}
