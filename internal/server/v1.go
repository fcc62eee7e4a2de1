package server

import (
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"strconv"
	"time"

	"nous"
	"nous/internal/repl"
)

// envelope is the uniform response body (see the package comment).
type envelope struct {
	Data  any           `json:"data"`
	Error *apiErrorBody `json:"error"`
	Meta  metaJSON      `json:"meta"`
}

type apiErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type metaJSON struct {
	Epoch  uint64      `json:"epoch"`
	Window *windowJSON `json:"window"`
	TookMS int64       `json:"took_ms"`
}

// respond writes the envelope for one request outcome: encoded compactly
// before the status line, so a payload that cannot be encoded still becomes
// a 500 internal envelope, and sent length-framed in one write.
func (s *Server) respond(w http.ResponseWriter, start time.Time, win *windowJSON, data any, e *apiError) {
	env := envelope{Data: data, Meta: metaJSON{
		Epoch:  s.pipeline.KG().Graph().Epoch(),
		Window: win,
		TookMS: time.Since(start).Milliseconds(),
	}}
	status := http.StatusOK
	if e != nil {
		status = e.status
		env.Data = nil
		env.Error = &apiErrorBody{Code: e.code, Message: e.msg}
	}
	body, err := json.Marshal(env)
	if err != nil {
		log.Printf("server: encoding %d response: %v", status, err)
		status = http.StatusInternalServerError
		env.Data = nil
		env.Error = &apiErrorBody{Code: codeInternal, Message: "encoding response: " + err.Error()}
		body, _ = json.Marshal(env) // strings and integers only: cannot fail
	}
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// A failed write means the client left or the request timed out: there
	// is no one left to tell.
	_, _ = w.Write(body)
}

// v1 adapts an endpoint builder to the envelope.
func (s *Server) v1(build func(*http.Request) (any, *windowJSON, *apiError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		data, win, e := build(r)
		s.respond(w, start, win, data, e)
	}
}

// v1Mux routes the enveloped endpoints (the streaming pair is registered on
// the root mux, outside the timeout wrapper).
func (s *Server) v1Mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("GET /api/v1/ask", s.v1(s.buildAsk))
	m.HandleFunc("GET /api/v1/entity", s.v1(s.buildEntity))
	m.HandleFunc("GET /api/v1/trending", s.v1(s.buildTrending))
	m.HandleFunc("GET /api/v1/patterns", s.v1(s.buildPatterns))
	m.HandleFunc("GET /api/v1/explain", s.v1(s.buildExplain))
	m.HandleFunc("GET /api/v1/diff", s.v1(s.buildDiff))
	m.HandleFunc("GET /api/v1/plan", s.v1(s.buildPlan))
	m.HandleFunc("GET /api/v1/recent", s.v1(s.buildRecent))
	m.HandleFunc("GET /api/v1/graph", s.v1(s.buildGraph))
	m.HandleFunc("GET /api/v1/stats", s.v1(s.buildStats))
	m.HandleFunc("POST /api/v1/facts", s.v1Facts)
	m.HandleFunc("/api/", s.v1NotFound)
	return m
}

// v1NotFound keeps unknown /api/ paths (and wrong methods) on the envelope
// contract instead of net/http's text/plain 404.
func (s *Server) v1NotFound(w http.ResponseWriter, r *http.Request) {
	s.respond(w, time.Now(), nil, nil, &apiError{
		status: http.StatusNotFound, code: codeBadRequest,
		msg: "unknown endpoint " + r.Method + " " + r.URL.Path,
	})
}

// replicationJSON is the replication section of /api/v1/stats.
type replicationJSON struct {
	// Role is "leader" (durable, serves /api/v1/wal), "follower" (read
	// replica tailing a leader) or "standalone" (in-memory, no replication).
	Role         string `json:"role"`
	LeaderURL    string `json:"leader_url,omitempty"`
	LeaderEpoch  uint64 `json:"leader_epoch"`
	AppliedEpoch uint64 `json:"applied_epoch"`
	Lag          uint64 `json:"lag"`
	Connected    *bool  `json:"connected,omitempty"`
	Reconnects   uint64 `json:"reconnects,omitempty"`
	LastError    string `json:"last_error,omitempty"`
}

func (s *Server) replication() replicationJSON {
	if f := s.pipeline.Follower(); f != nil {
		st := f.Status()
		connected := st.Connected
		return replicationJSON{
			Role: "follower", LeaderURL: st.LeaderURL,
			LeaderEpoch: st.LeaderEpoch, AppliedEpoch: st.AppliedEpoch, Lag: st.Lag,
			Connected: &connected, Reconnects: st.Reconnects, LastError: st.LastError,
		}
	}
	epoch := s.pipeline.KG().Graph().Epoch()
	role := "standalone"
	if s.pipeline.WALSource() != nil {
		role = "leader"
	}
	return replicationJSON{Role: role, LeaderEpoch: epoch, AppliedEpoch: epoch}
}

// tripleJSON is the POST /api/v1/facts wire form of one fact.
type tripleJSON struct {
	Subject     string   `json:"subject"`
	Predicate   string   `json:"predicate"`
	Object      string   `json:"object"`
	SubjectType string   `json:"subject_type,omitempty"`
	ObjectType  string   `json:"object_type,omitempty"`
	Confidence  *float64 `json:"confidence,omitempty"` // default 1
	Curated     bool     `json:"curated,omitempty"`
	Source      string   `json:"source,omitempty"`
	Doc         string   `json:"doc,omitempty"`
	Sentence    string   `json:"sentence,omitempty"`
	// Time accepts the same formats as the since/until query parameters.
	Time string `json:"time,omitempty"`
}

func (f tripleJSON) triple() (nous.Triple, error) {
	if f.Subject == "" || f.Predicate == "" || f.Object == "" {
		return nous.Triple{}, errors.New("each fact needs subject, predicate and object")
	}
	conf := 1.0
	if f.Confidence != nil {
		conf = *f.Confidence
	}
	t := nous.Triple{
		Subject: f.Subject, Predicate: f.Predicate, Object: f.Object,
		SubjectType: nous.EntityType(f.SubjectType), ObjectType: nous.EntityType(f.ObjectType),
		Confidence: conf, Curated: f.Curated,
		Provenance: nous.Provenance{Source: f.Source, DocID: f.Doc, Sentence: f.Sentence},
	}
	if f.Time != "" {
		ts, err := timeParam("time", f.Time)
		if err != nil {
			return nous.Triple{}, err
		}
		t.Provenance.Time = time.Unix(ts, 0).UTC()
	}
	return t, nil
}

// factResult reports one submitted fact's outcome, index-aligned with the
// request's facts array.
type factResult struct {
	ID    uint64 `json:"id,omitempty"`
	Error string `json:"error,omitempty"`
}

type factsData struct {
	Added   int          `json:"added"`
	Results []factResult `json:"results"`
}

// v1Facts appends facts through the full mutation path (ontology checks,
// WAL, temporal index, live listeners). Read replicas reject it: their only
// write path is the leader's WAL, and a local write would fork the replica
// from the stream.
func (s *Server) v1Facts(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.pipeline.ReadOnly() {
		s.respond(w, start, nil, nil, &apiError{
			status: http.StatusForbidden, code: codeReadOnly,
			msg: "this node is a read replica; send writes to the leader",
		})
		return
	}
	var req struct {
		Facts []tripleJSON `json:"facts"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		s.respond(w, start, nil, nil, &apiError{
			status: http.StatusBadRequest, code: codeParseError,
			msg: "invalid JSON body: " + err.Error(),
		})
		return
	}
	if len(req.Facts) == 0 {
		s.respond(w, start, nil, nil, badParam(`body must be {"facts": [...]} with at least one fact`))
		return
	}
	triples := make([]nous.Triple, len(req.Facts))
	for i, fj := range req.Facts {
		t, err := fj.triple()
		if err != nil {
			s.respond(w, start, nil, nil, badParam("facts["+strconv.Itoa(i)+"]: "+err.Error()))
			return
		}
		triples[i] = t
	}
	ids, errs := s.pipeline.KG().AddFacts(triples)
	data := factsData{Results: make([]factResult, len(triples))}
	for i := range triples {
		if errs[i] != nil {
			data.Results[i].Error = errs[i].Error()
			continue
		}
		data.Results[i].ID = uint64(ids[i])
		data.Added++
	}
	s.respond(w, start, nil, data, nil)
}

// streamWriter counts bytes so the WAL handler knows whether an error
// surfaced before or after the response started, and forwards Flush so the
// stream's frames leave the server promptly.
type streamWriter struct {
	http.ResponseWriter
	n int64
}

func (sw *streamWriter) Write(p []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(p)
	sw.n += int64(n)
	return n, err
}

func (sw *streamWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleWAL streams WAL records with epoch > from as raw CRC-framed bytes —
// the same framing as the on-disk segments. The stream stays open
// indefinitely (heartbeat progress records while caught up), so it is
// registered outside the timeout wrapper. 410 Gone means the resume point
// predates the retained WAL and the follower must re-bootstrap.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	l := s.pipeline.WALSource()
	if l == nil {
		s.respond(w, start, nil, nil, &apiError{
			status: http.StatusNotFound, code: codeBadRequest,
			msg: "not a replication leader: this server has no durable store (run with -data-dir)",
		})
		return
	}
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.respond(w, start, nil, nil, badParam(`parameter "from" must be an unsigned integer epoch, got `+strconv.Quote(v)))
			return
		}
		from = n
	}
	sw := &streamWriter{ResponseWriter: w}
	sw.Header().Set("Content-Type", "application/octet-stream")
	err := l.StreamWAL(r.Context(), from, sw)
	switch {
	case err == nil:
	case errors.Is(err, repl.ErrBelowFloor):
		// The floor check runs before the first frame, so the envelope can
		// still own the response.
		s.respond(w, start, nil, nil, &apiError{
			status: http.StatusGone, code: codeWALTruncated, msg: err.Error(),
		})
	default:
		if sw.n == 0 {
			s.respond(w, start, nil, nil, &apiError{
				status: http.StatusInternalServerError, code: codeInternal, msg: err.Error(),
			})
			return
		}
		// Mid-stream failure: the status line is long gone, so all we can do
		// is cut the stream and log; the follower's CRC check rejects any
		// torn frame and its reconnect loop recovers.
		log.Printf("server: wal stream ended: %v", err)
	}
}

// handleSnapshot serves the newest snapshot blob for follower bootstrap,
// forcing a checkpoint if the store has never written one. The snapshot's
// epoch rides in the X-Nous-Snapshot-Epoch header.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	l := s.pipeline.WALSource()
	if l == nil {
		s.respond(w, start, nil, nil, &apiError{
			status: http.StatusNotFound, code: codeBadRequest,
			msg: "not a replication leader: this server has no durable store (run with -data-dir)",
		})
		return
	}
	path, epoch, err := l.SnapshotPath()
	if err != nil {
		s.respond(w, start, nil, nil, &apiError{
			status: http.StatusInternalServerError, code: codeInternal, msg: err.Error(),
		})
		return
	}
	w.Header().Set("X-Nous-Snapshot-Epoch", strconv.FormatUint(epoch, 10))
	http.ServeFile(w, r, path)
}
