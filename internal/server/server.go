// Package server provides the web interface of the demo (§4, Fig 6): a
// small HTTP API plus a single-page UI over a built pipeline. Endpoints
// mirror the five query classes and the graph/statistics views the paper
// demonstrates. The server is built for concurrent serving against a live
// (mutating) pipeline: every handler is safe to run while ingestion writes
// to the KG, and each request is bounded by a per-request timeout.
//
// Every endpoint lives under /api/v1/ and, apart from the two replication
// streams, wraps its response in one envelope:
//
//	{"data": ..., "error": null | {"code": ..., "message": ...},
//	 "meta": {"epoch": ..., "window": null | {"since","until"}, "took_ms": ...}}
//
// data and error are mutually exclusive; all three keys are always present.
// meta.epoch is the KG's mutation epoch at response time — on a replica it
// is the leader epoch the answer reflects, which is what makes answers from
// different replicas comparable. Error codes are stable: bad_request,
// parse_error, unknown_entity, read_only_replica, timeout, wal_truncated,
// internal. Any other path under /api/, or a wrong method, is an enveloped
// 404 bad_request naming the request.
//
// The envelope is encoded whole before the status line and sent compact, on
// one line ending in a newline, with an exact Content-Length (pipe it
// through jq . to read it); an answer that cannot be encoded is a 500
// internal.
//
//	GET  /api/v1/ask?q=...          any of the query classes
//	GET  /api/v1/entity?entity=...  entity summary (Fig 6)
//	GET  /api/v1/trending?k=10      trending entities/predicates
//	GET  /api/v1/patterns?k=10      closed frequent patterns (Fig 7)
//	GET  /api/v1/explain?src=&dst=&predicate=&k=   relationship paths
//	GET  /api/v1/diff?entity=&asince=&auntil=&bsince=&buntil=  temporal diff
//	GET  /api/v1/plan?q=...         the compiled logical plan for a question
//	GET  /api/v1/stats              KG, stream, cache, plan, persist and replication statistics
//	GET  /api/v1/graph?entity=A,B   subgraph as JSON
//	GET  /api/v1/recent?k=20        newest facts in the window (time-index feed)
//	POST /api/v1/facts              append curated/extracted facts (leader only)
//	GET  /api/v1/wal?from=          raw WAL stream for replicas (no envelope)
//	GET  /api/v1/snapshot           newest snapshot blob for bootstrap (no envelope)
//	GET  /                          minimal HTML console
//
// The query endpoints accept since and until parameters (a bare year, unix
// seconds, YYYY-MM-DD or RFC 3339) scoping the answer to the half-open
// window [since, until). Curated facts are always in scope for the query
// endpoints; /api/v1/recent is a pure timestamp feed, so undated curated
// facts never appear in it. Omitting both yields exactly the unwindowed
// answer. A bounded window on /api/v1/trending runs the planner's backfill
// scan — bursts are scored in every bucket the window covers, off the
// temporal index, not just the window's end bucket.
//
// /api/v1/diff compares two windows: A = [asince, auntil), B = [bsince,
// buntil), each end optional (unbounded when omitted, but each window needs
// at least one bound). With entity set it diffs that entity's facts;
// without, the whole extracted stream.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nous"
)

// DefaultRequestTimeout bounds each request's handler run time.
const DefaultRequestTimeout = 15 * time.Second

// Server wraps a pipeline behind HTTP handlers.
type Server struct {
	pipeline *nous.Pipeline
	handler  http.Handler
	// ask answers one windowed question; it defaults to the pipeline's
	// AskWindow and exists as a seam so tests can exercise the ask
	// endpoint's error mapping (parse failures vs executor failures, and
	// the v1 panic recovery) directly.
	ask func(question string, w nous.Window) (nous.Answer, error)
}

// New builds a server over an assembled pipeline with the default
// per-request timeout.
func New(p *nous.Pipeline) *Server {
	return NewWithTimeout(p, DefaultRequestTimeout)
}

// timeoutBody is the 503 envelope of a timed-out request, in the same
// compact, newline-terminated form respond writes. http.TimeoutHandler only
// takes a static body, so the meta section carries zero values.
const timeoutBody = `{"data":null,"error":{"code":"timeout","message":"request timed out"},"meta":{"epoch":0,"window":null,"took_ms":0}}` + "\n"

// NewWithTimeout builds a server whose handlers are cut off after timeout
// (<= 0 disables the limit); a timed-out request gets a 503 envelope. The
// replication endpoints (/api/v1/wal, /api/v1/snapshot) bypass the timeout:
// a WAL stream is long-lived by design, and http.TimeoutHandler buffers
// responses and hides the flusher both endpoints need.
func NewWithTimeout(p *nous.Pipeline, timeout time.Duration) *Server {
	s := &Server{pipeline: p, ask: p.AskWindow}
	api := s.recoverPanics(s.v1Mux())
	if timeout > 0 {
		api = jsonTimeout(api, timeout)
	}

	root := http.NewServeMux()
	// The streaming replication endpoints sit outside both the timeout and
	// the envelope-on-panic wrapper's buffered path.
	root.HandleFunc("GET /api/v1/wal", s.handleWAL)
	root.HandleFunc("GET /api/v1/snapshot", s.handleSnapshot)
	root.Handle("/api/", api)
	root.HandleFunc("GET /{$}", s.handleIndex)
	s.handler = root
	return s
}

// jsonTimeout wraps h in http.TimeoutHandler with the timeout envelope.
// TimeoutHandler writes its 503 body without a Content-Type, which gets
// sniffed as text/plain; pre-setting JSON on the real writer keeps timeouts
// on the API's uniform error contract, while normal responses overwrite it
// with their own Content-Type (which TimeoutHandler copies over this one).
func jsonTimeout(h http.Handler, timeout time.Duration) http.Handler {
	th := http.TimeoutHandler(h, timeout, timeoutBody)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		th.ServeHTTP(w, r)
	})
}

// recoverPanics converts a handler panic into a 500 internal envelope
// instead of net/http's default connection drop. http.ErrAbortHandler is
// re-raised: it is the sanctioned way to abort a response mid-write.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			log.Printf("server: panic serving %s: %v", r.URL.Path, rec)
			s.respond(w, time.Now(), nil, nil, &apiError{
				status: http.StatusInternalServerError, code: codeInternal, msg: "internal server error",
			})
		}()
		next.ServeHTTP(w, r)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// apiError carries one endpoint failure: the HTTP status, the error code
// and the human-readable message.
type apiError struct {
	status int
	code   string
	msg    string
}

// The v1 error codes.
const (
	codeBadRequest    = "bad_request"
	codeParseError    = "parse_error"
	codeUnknownEntity = "unknown_entity"
	codeReadOnly      = "read_only_replica"
	codeInternal      = "internal"
	codeWALTruncated  = "wal_truncated"
)

func badParam(msg string) *apiError {
	return &apiError{status: http.StatusBadRequest, code: codeBadRequest, msg: msg}
}

// askResponse carries a full structured answer.
type askResponse struct {
	Class string      `json:"class"`
	Text  string      `json:"text"`
	Data  interface{} `json:"data,omitempty"`
}

func (s *Server) buildAsk(r *http.Request) (any, *windowJSON, *apiError) {
	q := r.URL.Query().Get("q")
	if q == "" {
		return nil, nil, badParam("missing q parameter; classes: " + strings.Join(nous.QueryClasses(), " | "))
	}
	win, err := windowParam(r)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	a, err := s.ask(q, win)
	if err != nil {
		// Unparseable questions and invalid temporal qualifiers are the
		// client's fault; anything else is an execution failure and must
		// surface as a server error, not a 400.
		if errors.Is(err, nous.ErrParse) {
			return nil, winJSON(win), &apiError{status: http.StatusBadRequest, code: codeParseError, msg: err.Error()}
		}
		return nil, winJSON(win), &apiError{status: http.StatusInternalServerError, code: codeInternal, msg: err.Error()}
	}
	resp := askResponse{Class: string(a.Class), Text: a.Text}
	switch {
	case a.Entity != nil:
		resp.Data = a.Entity
	case a.Diff != nil:
		resp.Data = a.Diff
	case len(a.Trends) > 0:
		resp.Data = a.Trends
	case len(a.Paths) > 0:
		resp.Data = a.Paths
	case len(a.Patterns) > 0:
		resp.Data = patternsJSON(a.Patterns)
	case a.Fact != nil:
		resp.Data = a.Fact
	}
	return resp, winJSON(win), nil
}

// buildEntity serves the entity summary of the "entity" parameter (the name
// /api/v1/graph uses too).
func (s *Server) buildEntity(r *http.Request) (any, *windowJSON, *apiError) {
	name := r.URL.Query().Get("entity")
	if name == "" {
		return nil, nil, badParam("missing entity parameter")
	}
	win, err := windowParam(r)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	a, err := s.pipeline.AboutWindow(name, win)
	if err != nil {
		return nil, winJSON(win), badParam(err.Error())
	}
	if a.Entity == nil {
		return nil, winJSON(win), &apiError{status: http.StatusNotFound, code: codeUnknownEntity, msg: "unknown entity " + name}
	}
	return a.Entity, winJSON(win), nil
}

func (s *Server) buildTrending(r *http.Request) (any, *windowJSON, *apiError) {
	k, err := intParam(r, "k", 10)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	win, err := windowParam(r)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	// A bounded window runs the planner's windowed backfill scan; the
	// unwindowed path stays the live detector, byte-for-byte.
	if win.Bounded() {
		a, err := s.pipeline.TrendingWindow(win, k)
		if err != nil {
			return nil, winJSON(win), &apiError{status: http.StatusInternalServerError, code: codeInternal, msg: err.Error()}
		}
		trends := a.Trends
		if trends == nil {
			trends = []nous.Trend{}
		}
		return trends, winJSON(win), nil
	}
	return s.pipeline.Trending(k), nil, nil
}

// buildDiff serves the temporal join "what changed between A and B".
// Window A is [asince, auntil) and window B is [bsince, buntil); each bound
// accepts the same formats as since/until and may be omitted (unbounded),
// but each window needs at least one bound. entity is optional: empty diffs
// the whole extracted stream.
func (s *Server) buildDiff(r *http.Request) (any, *windowJSON, *apiError) {
	a, okA, err := halfWindow(r, "asince", "auntil")
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	b, okB, err := halfWindow(r, "bsince", "buntil")
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	if !okA || !okB {
		return nil, nil, badParam("diff needs both windows: asince/auntil and bsince/buntil (at least one bound each)")
	}
	entity := r.URL.Query().Get("entity")
	ans, err := s.pipeline.Diff(entity, a, b)
	if err != nil {
		return nil, nil, &apiError{status: http.StatusInternalServerError, code: codeInternal, msg: err.Error()}
	}
	if ans.Diff == nil {
		return nil, nil, &apiError{status: http.StatusNotFound, code: codeUnknownEntity, msg: "unknown entity " + entity}
	}
	return askResponse{Class: string(ans.Class), Text: ans.Text, Data: ans.Diff}, nil, nil
}

// planResponse is the /api/v1/plan data: the executed plan for a question —
// an explain-style rendering plus the operator tree, each node carrying the
// executor's actual_rows unless the answer came from the plan cache.
type planResponse struct {
	Question string        `json:"question"`
	Class    string        `json:"class"`
	Explain  string        `json:"explain"`
	Root     nous.PlanNode `json:"root"`
	// Cacheable reports whether the question's plan qualifies for the
	// plan-result cache; Cached whether a fresh result was already cached
	// at the current epoch (in which case nothing executed and the tree
	// carries no actual_rows).
	Cacheable bool        `json:"cacheable"`
	Cached    bool        `json:"cached"`
	Window    *windowJSON `json:"window,omitempty"`
	// WindowB is the second window of a diff question (the "after" side).
	WindowB *windowJSON `json:"window_b,omitempty"`
}

type windowJSON struct {
	Since int64 `json:"since"`
	Until int64 `json:"until"`
}

// winJSON is the meta/window wire form of a parsed window: nil when
// unbounded.
func winJSON(w nous.Window) *windowJSON {
	if !w.Bounded() {
		return nil
	}
	return &windowJSON{Since: w.Since, Until: w.Until}
}

// buildPlan compiles and executes the question's logical plan, reporting
// per-operator actual rows and the plan cache's view.
func (s *Server) buildPlan(r *http.Request) (any, *windowJSON, *apiError) {
	q := r.URL.Query().Get("q")
	if q == "" {
		return nil, nil, badParam("missing q parameter; classes: " + strings.Join(nous.QueryClasses(), " | "))
	}
	win, err := windowParam(r)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	rep, err := s.pipeline.ExplainPlan(q, win)
	if err != nil {
		if errors.Is(err, nous.ErrParse) {
			return nil, winJSON(win), &apiError{status: http.StatusBadRequest, code: codeParseError, msg: err.Error()}
		}
		return nil, winJSON(win), &apiError{status: http.StatusInternalServerError, code: codeInternal, msg: err.Error()}
	}
	p := rep.Plan
	resp := planResponse{
		Question:  q,
		Class:     p.Class,
		Explain:   rep.Explain(),
		Root:      rep.Describe(),
		Cacheable: rep.Cacheable,
		Cached:    rep.Cached,
	}
	if p.Window.Bounded() {
		resp.Window = &windowJSON{Since: p.Window.Since, Until: p.Window.Until}
	}
	if p.WindowB.Bounded() {
		resp.WindowB = &windowJSON{Since: p.WindowB.Since, Until: p.WindowB.Until}
	}
	return resp, winJSON(win), nil
}

// patternJSON is the wire form of a mined pattern.
type patternJSON struct {
	Pattern string `json:"pattern"`
	Support int    `json:"support"`
	Code    string `json:"code"`
}

func patternsJSON(ps []nous.Pattern) []patternJSON {
	out := make([]patternJSON, len(ps))
	for i, p := range ps {
		out[i] = patternJSON{Pattern: p.String(), Support: p.Support, Code: p.Code}
	}
	return out
}

func (s *Server) buildPatterns(r *http.Request) (any, *windowJSON, *apiError) {
	k, err := intParam(r, "k", 10)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	return patternsJSON(s.pipeline.Patterns(k)), nil, nil
}

func (s *Server) buildExplain(r *http.Request) (any, *windowJSON, *apiError) {
	src := r.URL.Query().Get("src")
	dst := r.URL.Query().Get("dst")
	if src == "" || dst == "" {
		return nil, nil, badParam("missing src/dst parameters")
	}
	k, err := intParam(r, "k", 3)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	win, err := windowParam(r)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	a, err := s.pipeline.ExplainWindow(src, dst, r.URL.Query().Get("predicate"), k, win)
	if err != nil {
		return nil, winJSON(win), badParam(err.Error())
	}
	return a.Paths, winJSON(win), nil
}

// statsResponse is the /api/v1/stats data: KG quality, stream counters, the
// epoch-versioned query cache state, the query planner's execution
// counters, the persistence layer's snapshot/WAL state when the pipeline is
// durable, and the node's replication role.
type statsResponse struct {
	KG          nous.KGStats       `json:"kg"`
	Stream      nous.StreamStats   `json:"stream"`
	Query       nous.QueryStats    `json:"query"`
	Temporal    nous.TemporalStats `json:"temporal"`
	Plan        nous.PlanStats     `json:"plan"`
	Persist     *nous.PersistStats `json:"persist,omitempty"`
	Replication replicationJSON    `json:"replication"`
}

func (s *Server) buildStats(*http.Request) (any, *windowJSON, *apiError) {
	resp := statsResponse{
		KG:          s.pipeline.KG().Stats(),
		Stream:      s.pipeline.Stats(),
		Query:       s.pipeline.QueryStats(),
		Temporal:    s.pipeline.TemporalStats(),
		Plan:        s.pipeline.PlanStats(),
		Replication: s.replication(),
	}
	if ps, ok := s.pipeline.PersistStats(); ok {
		resp.Persist = &ps
	}
	return resp, nil, nil
}

// buildGraph validates the export target fully before rendering, so an
// error can still change the status code: the export is buffered whole and
// becomes the envelope's data only once it succeeded.
func (s *Server) buildGraph(r *http.Request) (any, *windowJSON, *apiError) {
	win, err := windowParam(r)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	var names []string
	if e := r.URL.Query().Get("entity"); e != "" {
		names = strings.Split(e, ",")
		for _, n := range names {
			if _, ok := s.pipeline.KG().Entity(n); !ok {
				return nil, winJSON(win), &apiError{status: http.StatusNotFound, code: codeUnknownEntity, msg: "unknown entity " + n}
			}
		}
	}
	var buf bytes.Buffer
	if err := s.pipeline.KG().ExportJSONWindow(&buf, win, names...); err != nil {
		return nil, winJSON(win), &apiError{status: http.StatusInternalServerError, code: codeInternal, msg: err.Error()}
	}
	return json.RawMessage(buf.Bytes()), winJSON(win), nil
}

// recentFact is the wire form of one stream-feed entry.
type recentFact struct {
	Subject    string  `json:"subject"`
	Predicate  string  `json:"predicate"`
	Object     string  `json:"object"`
	Confidence float64 `json:"confidence"`
	Curated    bool    `json:"curated"`
	Source     string  `json:"source,omitempty"`
	Time       string  `json:"time,omitempty"`
}

// buildRecent serves the newest k facts inside the window, oldest first —
// the time index's feed view of the stream.
func (s *Server) buildRecent(r *http.Request) (any, *windowJSON, *apiError) {
	k, err := intParam(r, "k", 20)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	win, err := windowParam(r)
	if err != nil {
		return nil, nil, badParam(err.Error())
	}
	facts := s.pipeline.RecentFacts(win, k)
	out := make([]recentFact, len(facts))
	for i, f := range facts {
		out[i] = recentFact{
			Subject: f.Subject, Predicate: f.Predicate, Object: f.Object,
			Confidence: f.Confidence, Curated: f.Curated, Source: f.Provenance.Source,
		}
		if !f.Provenance.Time.IsZero() {
			out[i].Time = f.Provenance.Time.UTC().Format(time.RFC3339)
		}
	}
	return out, winJSON(win), nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

// windowParam parses the optional since/until query parameters into a time
// window. Accepted forms per parameter: a bare year ("2015" — Jan 1 of that
// year, matching the question language's "since 2015"), unix seconds
// ("1434067200"), a day ("2015-06-12") or RFC 3339
// ("2015-06-12T00:00:00Z"). until is the window's exclusive end. Omitting
// both yields the unbounded window.
func windowParam(r *http.Request) (nous.Window, error) {
	w, _, err := halfWindow(r, "since", "until")
	return w, err
}

// halfWindow parses one named since/until parameter pair into a window. ok
// reports whether either parameter was present; absent pairs return the
// unbounded window.
func halfWindow(r *http.Request, sinceName, untilName string) (nous.Window, bool, error) {
	sinceStr := r.URL.Query().Get(sinceName)
	untilStr := r.URL.Query().Get(untilName)
	if sinceStr == "" && untilStr == "" {
		return nous.Window{}, false, nil
	}
	w := nous.Window{Since: math.MinInt64, Until: math.MaxInt64}
	if sinceStr != "" {
		ts, err := timeParam(sinceName, sinceStr)
		if err != nil {
			return nous.Window{}, true, err
		}
		w.Since = ts
	}
	if untilStr != "" {
		ts, err := timeParam(untilName, untilStr)
		if err != nil {
			return nous.Window{}, true, err
		}
		w.Until = ts
	}
	if w.Since >= w.Until {
		return nous.Window{}, true, fmt.Errorf("empty window: %s %q is not before %s %q", sinceName, sinceStr, untilName, untilStr)
	}
	return w, true, nil
}

func timeParam(name, v string) (int64, error) {
	if ts, err := strconv.ParseInt(v, 10, 64); err == nil {
		// A bare 4-digit integer is a year, not 2015 seconds past the
		// epoch — the question language ("since 2015") resolves the same
		// token to Jan 1 of that year, and the two surfaces must agree.
		// Signed or zero-padded tokens ("-100", "0100") stay unix seconds.
		if len(v) == 4 && ts >= 1000 {
			return time.Date(int(ts), 1, 1, 0, 0, 0, 0, time.UTC).Unix(), nil
		}
		return ts, nil
	}
	if t, err := time.Parse("2006-01-02", v); err == nil {
		return t.Unix(), nil
	}
	if t, err := time.Parse(time.RFC3339, v); err == nil {
		return t.Unix(), nil
	}
	return 0, fmt.Errorf("parameter %q must be a year, unix seconds, YYYY-MM-DD or RFC 3339, got %q", name, v)
}

// intParam parses a positive integer query parameter, returning def when
// absent and an error when malformed or non-positive.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("parameter %q must be a positive integer, got %q", name, v)
	}
	return n, nil
}

const indexHTML = `<!DOCTYPE html>
<html>
<head><meta charset="utf-8"><title>NOUS</title>
<style>
 body { font-family: monospace; max-width: 60rem; margin: 2rem auto; }
 input { width: 40rem; padding: .4rem; }
 pre { background: #f4f4f4; padding: 1rem; white-space: pre-wrap; }
</style></head>
<body>
<h1>NOUS — dynamic knowledge graph console</h1>
<p>Five query classes: trending, entity, relationship, pattern, fact.</p>
<form onsubmit="ask(event)">
  <input id="q" placeholder='Tell me about DJI' autofocus>
  <button>Ask</button>
</form>
<pre id="out">Try: "What is trending?", "How is Windermere related to DJI?",
"What patterns are emerging?", "Did Amazon acquire Parrot?"</pre>
<script>
async function ask(ev) {
  ev.preventDefault();
  const q = document.getElementById('q').value;
  const res = await fetch('/api/v1/ask?q=' + encodeURIComponent(q));
  const body = await res.json();
  document.getElementById('out').textContent = body.data ? body.data.text : body.error.message;
}
</script>
</body>
</html>
`
