// Package plan is the logical query layer between the QA front end and the
// dynamic knowledge graph. Following the declarative-query-layer split of
// Hogan et al.'s Knowledge Graphs survey, every question class lowers into a
// small tree of composable logical operators — Scan, WindowFilter, Diff,
// Rank, Summarize, PathExplain, TrendScan, Predict — and one executor runs
// those trees against the graph store and its derived artifacts (the
// epoch-versioned analytics cache, the temporal index, the trend detector,
// the streaming miner, the coherence path search and the link-prediction
// model).
//
// The split buys composability the old per-class switch could not express:
// temporal diff queries ("what changed about X between 2015 and 2016") are a
// Diff of two WindowFiltered scans, and windowed trend backfill scores
// bursts inside an arbitrary historical window straight off the temporal
// index instead of the live detector's end bucket. Plans also render as
// explain-style trees (Explain/Describe) for GET /api/v1/plan.
package plan

import (
	"fmt"
	"strings"

	"nous/internal/temporal"
)

// Op names one logical operator.
type Op string

// The logical operators.
const (
	OpScan         Op = "Scan"
	OpWindowFilter Op = "WindowFilter"
	OpDiff         Op = "Diff"
	OpRank         Op = "Rank"
	OpSummarize    Op = "Summarize"
	OpPathExplain  Op = "PathExplain"
	OpTrendScan    Op = "TrendScan"
	OpPredict      Op = "Predict"
)

// Node is one operator in a logical plan tree.
type Node interface {
	Op() Op
	// Inputs returns the operator's child nodes (nil for leaves).
	Inputs() []Node
	// args renders the operator's own arguments for explain output.
	args() string
}

// Source names the base relation a Scan reads.
type Source string

// Scan sources.
const (
	// SourceFactsAbout reads every fact in which Subject participates
	// (as subject or object), ordered by descending confidence.
	SourceFactsAbout Source = "facts_about"
	// SourceObjects reads the objects of (Subject, Predicate, ?).
	SourceObjects Source = "objects"
	// SourceSubjects reads the subjects of (?, Predicate, Object).
	SourceSubjects Source = "subjects"
	// SourceFactCheck probes (Subject, Predicate, Object) membership and,
	// when present, the evidence facts around Subject.
	SourceFactCheck Source = "fact_check"
	// SourcePatterns reads the miner's closed frequent patterns.
	SourcePatterns Source = "patterns"
	// SourceStream reads dated facts off the temporal index in (time, id)
	// order — the raw extracted stream, with no curated substrate.
	SourceStream Source = "stream"
)

// Scan reads a base relation. Entity arguments are surface forms; resolution
// (alias lookup, disambiguation) happens at execution time.
type Scan struct {
	Source    Source
	Subject   string
	Object    string
	Predicate string
}

func (s *Scan) Op() Op         { return OpScan }
func (s *Scan) Inputs() []Node { return nil }
func (s *Scan) args() string {
	parts := []string{"source=" + string(s.Source)}
	if s.Subject != "" {
		parts = append(parts, fmt.Sprintf("subject=%q", s.Subject))
	}
	if s.Predicate != "" {
		parts = append(parts, "predicate="+s.Predicate)
	}
	if s.Object != "" {
		parts = append(parts, fmt.Sprintf("object=%q", s.Object))
	}
	return strings.Join(parts, " ")
}

// WindowFilter restricts its input to the time window. At execution the
// filter is pushed down into the scan (the store's windowed reads), so the
// operator is a logical view, not a post-hoc pass over materialized rows.
type WindowFilter struct {
	Window temporal.Window
	Input  Node
}

func (w *WindowFilter) Op() Op         { return OpWindowFilter }
func (w *WindowFilter) Inputs() []Node { return []Node{w.Input} }
func (w *WindowFilter) args() string   { return "window=" + w.Window.String() }

// Rank orders its input by the relation's native ranking (confidence for
// facts, burst score for trends, support for patterns) and keeps the top K.
// K <= 0 keeps everything.
type Rank struct {
	K     int
	Input Node
}

func (r *Rank) Op() Op         { return OpRank }
func (r *Rank) Inputs() []Node { return []Node{r.Input} }
func (r *Rank) args() string   { return fmt.Sprintf("k=%d", r.K) }

// Summarize assembles the Fig-6 entity view over its input facts: type,
// windowed PageRank importance, recent activity sparkline and the fact list.
type Summarize struct {
	Subject string
	Window  temporal.Window
	Input   Node
}

func (s *Summarize) Op() Op         { return OpSummarize }
func (s *Summarize) Inputs() []Node { return []Node{s.Input} }
func (s *Summarize) args() string {
	a := fmt.Sprintf("entity=%q", s.Subject)
	if s.Window.Bounded() {
		a += " window=" + s.Window.String()
	}
	return a
}

// PathExplain searches coherence-ranked paths between two entities,
// optionally constrained to traverse a predicate, inside the window.
type PathExplain struct {
	Subject   string
	Object    string
	Predicate string
	K         int
	Window    temporal.Window
}

func (p *PathExplain) Op() Op         { return OpPathExplain }
func (p *PathExplain) Inputs() []Node { return nil }
func (p *PathExplain) args() string {
	a := fmt.Sprintf("src=%q dst=%q k=%d", p.Subject, p.Object, p.K)
	if p.Predicate != "" {
		a += " via=" + p.Predicate
	}
	if p.Window.Bounded() {
		a += " window=" + p.Window.String()
	}
	return a
}

// TrendScan scores bursting entities and predicates. Unbounded windows read
// the live detector at the query clock; bounded windows with Backfill set
// replay the temporal index and score every bucket inside the window (not
// just the window's end bucket). Without a temporal index the executor
// degrades to the live detector anchored at the window's end.
type TrendScan struct {
	Window   temporal.Window
	Backfill bool
}

func (t *TrendScan) Op() Op         { return OpTrendScan }
func (t *TrendScan) Inputs() []Node { return nil }
func (t *TrendScan) args() string {
	mode := "live"
	if t.Backfill {
		mode = "backfill"
	}
	a := "mode=" + mode
	if t.Window.Bounded() {
		a += " window=" + t.Window.String()
	}
	return a
}

// Predict turns a membership probe into a plausibility judgement: when the
// input fact-check found nothing, the link-prediction model scores the
// candidate triple.
type Predict struct {
	Subject   string
	Predicate string
	Object    string
	Input     Node
}

func (p *Predict) Op() Op         { return OpPredict }
func (p *Predict) Inputs() []Node { return []Node{p.Input} }
func (p *Predict) args() string {
	return fmt.Sprintf("subject=%q predicate=%s object=%q", p.Subject, p.Predicate, p.Object)
}

// Diff is the temporal join "what changed between A and B": the facts
// visible in window B but not A (added) and in A but not B (removed),
// matched by (subject, predicate, object). Curated facts are visible in
// every window, so they always cancel out.
type Diff struct {
	A, B             Node
	WindowA, WindowB temporal.Window
	Entity           string // surface form; empty = the whole stream
}

func (d *Diff) Op() Op         { return OpDiff }
func (d *Diff) Inputs() []Node { return []Node{d.A, d.B} }
func (d *Diff) args() string {
	a := fmt.Sprintf("a=%s b=%s", d.WindowA, d.WindowB)
	if d.Entity != "" {
		a = fmt.Sprintf("entity=%q ", d.Entity) + a
	}
	return a
}

// Plan is one compiled query: the operator tree plus the request parameters
// the answer renderer needs (surface forms for error messages, the window
// for header lines).
type Plan struct {
	Class     string
	Root      Node
	Subject   string
	Object    string
	Predicate string
	K         int
	Window    temporal.Window
	WindowB   temporal.Window // secondary window (diff queries)
}

// windowed wraps a node in a WindowFilter when the window actually
// constrains something; full-range plans keep the bare scan so the
// unwindowed hot path stays visibly untouched.
func windowed(w temporal.Window, n Node) Node {
	if !w.Bounded() {
		return n
	}
	return &WindowFilter{Window: w, Input: n}
}

// TrendingPlan lowers a trending question. Bounded windows request a
// backfill TrendScan — burst scoring across every bucket the window covers.
func TrendingPlan(w temporal.Window, k int) *Plan {
	return &Plan{
		Class:  "trending",
		Root:   &Rank{K: k, Input: &TrendScan{Window: w, Backfill: w.Bounded()}},
		K:      k,
		Window: w,
	}
}

// EntityPlan lowers "tell me about X".
func EntityPlan(subject string, w temporal.Window, k int) *Plan {
	return &Plan{
		Class: "entity",
		Root: &Summarize{Subject: subject, Window: w,
			Input: &Rank{K: k, Input: windowed(w, &Scan{Source: SourceFactsAbout, Subject: subject})}},
		Subject: subject,
		K:       k,
		Window:  w,
	}
}

// RelationshipPlan lowers "how is X related to Y (via p)".
func RelationshipPlan(subject, object, predicate string, k int, w temporal.Window) *Plan {
	return &Plan{
		Class:     "relationship",
		Root:      &PathExplain{Subject: subject, Object: object, Predicate: predicate, K: k, Window: w},
		Subject:   subject,
		Object:    object,
		Predicate: predicate,
		K:         k,
		Window:    w,
	}
}

// PatternsPlan lowers "what patterns are emerging".
func PatternsPlan(k int) *Plan {
	return &Plan{
		Class: "pattern",
		Root:  &Rank{K: k, Input: &Scan{Source: SourcePatterns}},
		K:     k,
	}
}

// FactPlan lowers the three fact-question shapes: did S p O (membership +
// plausibility), what does S p (objects), who p O (subjects).
func FactPlan(subject, predicate, object string, w temporal.Window) (*Plan, error) {
	p := &Plan{Class: "fact", Subject: subject, Object: object, Predicate: predicate, Window: w}
	switch {
	case subject != "" && object != "":
		p.Root = &Predict{Subject: subject, Predicate: predicate, Object: object,
			Input: windowed(w, &Scan{Source: SourceFactCheck, Subject: subject, Predicate: predicate, Object: object})}
	case subject != "":
		p.Root = windowed(w, &Scan{Source: SourceObjects, Subject: subject, Predicate: predicate})
	case object != "":
		p.Root = windowed(w, &Scan{Source: SourceSubjects, Object: object, Predicate: predicate})
	default:
		return nil, fmt.Errorf("qa: fact query without arguments")
	}
	return p, nil
}

// DiffPlan lowers "what changed (about entity) between A and B". An empty
// entity diffs the whole extracted stream off the temporal index.
func DiffPlan(entity string, a, b temporal.Window) *Plan {
	side := func(w temporal.Window) Node {
		if entity == "" {
			return &WindowFilter{Window: w, Input: &Scan{Source: SourceStream}}
		}
		return &WindowFilter{Window: w, Input: &Scan{Source: SourceFactsAbout, Subject: entity}}
	}
	return &Plan{
		Class:   "diff",
		Root:    &Diff{A: side(a), B: side(b), WindowA: a, WindowB: b, Entity: entity},
		Subject: entity,
		Window:  a,
		WindowB: b,
	}
}

// NodeDesc is the JSON-able shape of one plan operator (GET /api/v1/plan).
// ActualRows is present only on a description of an executed plan, that is
// one rendered with the Trace of its run.
type NodeDesc struct {
	Op         string     `json:"op"`
	Args       string     `json:"args,omitempty"`
	ActualRows *int       `json:"actual_rows,omitempty"`
	Inputs     []NodeDesc `json:"inputs,omitempty"`
}

func describe(n Node, tr *Trace) NodeDesc {
	d := NodeDesc{Op: string(n.Op()), Args: n.args()}
	if rows, ok := tr.ActualRows(n); ok {
		d.ActualRows = &rows
	}
	for _, in := range n.Inputs() {
		if in != nil {
			d.Inputs = append(d.Inputs, describe(in, tr))
		}
	}
	return d
}

// Describe returns the plan's operator tree in JSON-able form, with each
// operator's actual_rows when tr traces an execution of p (nil omits them).
func (p *Plan) Describe(tr *Trace) NodeDesc {
	if p.Root == nil {
		return NodeDesc{}
	}
	return describe(p.Root, tr)
}

// Explain renders the plan as an indented explain-style tree, with each
// operator annotated actual_rows=… when tr traces an execution of p (nil
// omits them):
//
//	plan class=entity
//	  Summarize(entity="DJI" window=[2015-01-01, 2016-01-01))
//	    Rank(k=10)
//	      WindowFilter(window=[2015-01-01, 2016-01-01))
//	        Scan(source=facts_about subject="DJI")
func (p *Plan) Explain(tr *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan class=%s\n", p.Class)
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		if n == nil {
			return
		}
		fmt.Fprintf(&b, "%s%s(%s)", strings.Repeat("  ", depth+1), n.Op(), n.args())
		if rows, ok := tr.ActualRows(n); ok {
			fmt.Fprintf(&b, " actual_rows=%d", rows)
		}
		b.WriteByte('\n')
		for _, in := range n.Inputs() {
			walk(in, depth+1)
		}
	}
	walk(p.Root, 0)
	return b.String()
}
