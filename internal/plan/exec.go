package plan

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"nous/internal/analytics"
	"nous/internal/core"
	"nous/internal/disambig"
	"nous/internal/fgm"
	"nous/internal/linkpred"
	"nous/internal/pathsearch"
	"nous/internal/temporal"
	"nous/internal/trends"
)

// EntitySummary is the payload of "Tell me about X" (Fig 6).
type EntitySummary struct {
	Name       string
	Type       string
	Importance float64 // PageRank
	Facts      []core.Fact
	Activity   []int // recent weekly mention counts
}

// ExplainedPath is one relationship explanation.
type ExplainedPath struct {
	Hops      []string // rendered hops: "DJI -[acquired]-> Aeros"
	Coherence float64
}

// FactAnswer answers did/who/what fact queries.
type FactAnswer struct {
	Known      bool
	Plausible  float64 // link-prediction score when not known
	Matches    []core.ScoredEntity
	Provenance []string
}

// DiffAnswer is the payload of a temporal diff query: the facts that appear
// only in window B (added) or only in window A (removed), matched by
// (subject, predicate, object).
type DiffAnswer struct {
	Entity    string          `json:"entity,omitempty"`
	WindowA   temporal.Window `json:"window_a"`
	WindowB   temporal.Window `json:"window_b"`
	Added     []core.Fact     `json:"added"`
	Removed   []core.Fact     `json:"removed"`
	Unchanged int             `json:"unchanged"`
}

// Result is one executed plan's answer: its query class, the rendered text
// and the payload matching the class.
type Result struct {
	Class    string
	Text     string
	Trends   []trends.Trend
	Entity   *EntitySummary
	Paths    []ExplainedPath
	Patterns []fgm.Pattern
	Fact     *FactAnswer
	Diff     *DiffAnswer
}

// Deps are the graph store and the derived artifacts an Executor reads.
// Every field is required.
type Deps struct {
	KG       *core.KG
	Trends   *trends.Table
	Miner    *fgm.Miner
	Searcher *pathsearch.Searcher
	Model    *linkpred.Model
	Linker   *disambig.Linker
	// Analytics supplies epoch-memoized whole-graph artifacts (PageRank
	// importance).
	Analytics *analytics.Cache
	// TIndex is the time-ordered edge index; whole-stream diffs
	// read it.
	TIndex *temporal.Index
	// Now supplies the query-time clock.
	Now func() time.Time
}

// Executor runs plans against the graph store and its derived artifacts. It
// owns the plan-result cache and the execution counters, so a system builds
// one and shares it across requests.
type Executor struct {
	Deps
	stats   *execStats
	results *analytics.ResultMemo[string, Result]
}

// cacheEntries caps the plan-result cache; beyond it the least-recently-used
// plan is evicted.
const cacheEntries = 256

// NewExecutor returns an executor over d with an empty plan-result cache.
func NewExecutor(d Deps) *Executor {
	return &Executor{
		Deps:    d,
		stats:   newStats(),
		results: analytics.NewResultMemo[string, Result](cacheEntries),
	}
}

// value is the data flowing up a plan tree during evaluation.
type value struct {
	subject, object     string // resolved canonical names
	subjectOK, objectOK bool
	facts               []core.Fact
	scored              []core.ScoredEntity
	patterns            []fgm.Pattern
	trends              []trends.Trend
	paths               []ExplainedPath
	entity              *EntitySummary
	has                 bool
	plausible           float64
	backfilled          bool
	diff                *DiffAnswer
}

// Trace records per-operator actual output row counts for one traced run,
// the actual_rows of explain output. A Trace belongs to a single Explain
// call and is not safe for concurrent use across runs.
type Trace struct {
	rows map[Node]int
}

// ActualRows reports the traced output row count of n.
func (t *Trace) ActualRows(n Node) (int, bool) {
	if t == nil {
		return 0, false
	}
	rows, ok := t.rows[n]
	return rows, ok
}

// rowsOf counts the rows in a node's evaluated value: the payload items the
// operator passed upward. A diff's rows are its changes (added + removed).
func rowsOf(v *value) int {
	if v.diff != nil {
		return len(v.diff.Added) + len(v.diff.Removed)
	}
	return len(v.facts) + len(v.scored) + len(v.patterns) + len(v.trends) + len(v.paths)
}

// Report is one executed explain: the plan, the traced actual rows (nil
// when nothing executed), and the plan-result cache's view of the plan.
type Report struct {
	Plan  *Plan
	Trace *Trace // actual_rows; nil on a cache hit
	// Cacheable reports whether the plan's class and shape qualify for the
	// plan-result cache; Cached whether a fresh result was already cached
	// at the current epoch when the explain ran.
	Cacheable bool
	Cached    bool
}

// Explain renders the explain tree with each operator's actual_rows.
func (r *Report) Explain() string { return r.Plan.Explain(r.Trace) }

// Describe renders the operator tree, with actual_rows, in JSON-able form.
func (r *Report) Describe() NodeDesc { return r.Plan.Describe(r.Trace) }

// Run executes one plan and renders its answer. Plans whose results are pure
// functions of (epoch, plan) are memoized in the plan-result cache, so a
// repeat at an unchanged epoch is a map read instead of a dated-stream
// re-materialization.
func (ex *Executor) Run(p *Plan) (Result, error) {
	r, _, err := ex.serve(p, nil)
	return r, err
}

// Explain executes a plan with per-operator row accounting — the engine
// behind GET /api/v1/plan. A cacheable plan whose result is already cached
// at the current epoch is not executed: the report says Cached and carries
// no Trace. A cold explain leaves the cache warm for the real query.
func (ex *Executor) Explain(p *Plan) (*Report, error) {
	rep := &Report{Plan: p, Cacheable: Cacheable(p)}
	if rep.Cacheable {
		if _, rep.Cached = ex.results.Peek(ex.KG.Graph().Epoch(), Normalize(p)); rep.Cached {
			return rep, nil
		}
	}
	tr := &Trace{rows: make(map[Node]int)}
	_, ran, err := ex.serve(p, tr)
	if err != nil {
		return nil, err
	}
	if ran {
		rep.Trace = tr // not when a concurrent flight computed instead
	}
	return rep, nil
}

// serve runs p, through the plan-result cache when p is cacheable, recording
// per-operator rows into tr when it is non-nil. ran reports whether p
// executed here rather than being served from the cache.
func (ex *Executor) serve(p *Plan, tr *Trace) (r Result, ran bool, err error) {
	if p == nil || p.Root == nil {
		return Result{}, false, errors.New("plan: empty plan")
	}
	if !Cacheable(p) {
		r, err = ex.run(p, tr)
		return r, true, err
	}
	epoch := ex.KG.Graph().Epoch()
	r, hit, err := ex.results.Get(epoch, Normalize(p), func() (Result, uint64, error) {
		r, err := ex.run(p, tr)
		return r, epoch, err
	})
	return r, !hit, err
}

// run executes p without consulting the cache.
func (ex *Executor) run(p *Plan, tr *Trace) (Result, error) {
	ex.stats.startPlan(p.Class)
	var v value
	if err := ex.eval(p.Root, temporal.All(), &v, tr); err != nil {
		return Result{}, err
	}
	return render(p, &v)
}

// Stats reports the executed plans by class, the evaluated operators by kind
// and the plan-result cache's counters.
func (ex *Executor) Stats() Stats {
	st := ex.stats.snapshot()
	ms := ex.results.Stats()
	st.Cache = &CacheStats{
		Hits:      ms.Hits,
		Misses:    ms.Misses,
		Coalesced: ms.Coalesced,
		Evictions: ms.Evictions,
		Entries:   ms.Entries,
	}
	return st
}

// windowRef is the reference instant for activity-style lookups under a
// window: a bounded window anchors at its (inclusive) end — "in 2015" means
// activity as of end-2015 — while an unbounded one uses the clock.
func (ex *Executor) windowRef(w temporal.Window) time.Time {
	if w.Bounded() && w.Until != math.MaxInt64 {
		return time.Unix(w.Until-1, 0)
	}
	return ex.Now()
}

// resolve maps a surface form to a canonical entity name.
func (ex *Executor) resolve(surface string) (string, bool) {
	if surface == "" {
		return "", false
	}
	if _, ok := ex.KG.Entity(surface); ok {
		return surface, true
	}
	if r := ex.Linker.LinkOne(disambig.Mention{Surface: surface}); r.Entity != "" {
		return r.Entity, true
	}
	cands := ex.KG.Candidates(surface)
	if len(cands) > 0 {
		return cands[0], true
	}
	return "", false
}

// eval evaluates one node into v. w is the window pushed down from enclosing
// WindowFilters; leaf scans run the store's windowed reads directly. When tr
// is non-nil, each node's output row count is recorded after it evaluates.
func (ex *Executor) eval(n Node, w temporal.Window, v *value, tr *Trace) error {
	err := ex.evalNode(n, w, v, tr)
	if err == nil && tr != nil {
		tr.rows[n] = rowsOf(v)
	}
	return err
}

func (ex *Executor) evalNode(n Node, w temporal.Window, v *value, tr *Trace) error {
	ex.stats.countOp(n.Op())
	switch t := n.(type) {
	case *WindowFilter:
		return ex.eval(t.Input, t.Window.Intersect(w), v, tr)

	case *Scan:
		return ex.evalScan(t, w, v)

	case *Rank:
		if err := ex.eval(t.Input, w, v, tr); err != nil {
			return err
		}
		if t.K > 0 {
			if len(v.facts) > t.K {
				v.facts = v.facts[:t.K]
			}
			if len(v.trends) > t.K {
				v.trends = v.trends[:t.K]
			}
		}
		return nil

	case *TrendScan:
		return ex.evalTrendScan(t, v)

	case *Summarize:
		if err := ex.eval(t.Input, w, v, tr); err != nil {
			return err
		}
		if !v.subjectOK {
			return nil
		}
		typ, _ := ex.KG.EntityType(v.subject)
		sum := &EntitySummary{Name: v.subject, Type: string(typ)}
		id, ok := ex.KG.Entity(v.subject)
		if ok {
			sum.Importance = ex.Analytics.WindowedImportance(id, t.Window)
		} else {
			id = -1
		}
		sum.Facts = v.facts
		if !t.Window.IsEmpty() {
			// Anchor the sparkline at the window's end, like trending does:
			// "tell me about X in 2015" shows 2015 activity, not today's.
			sum.Activity = ex.Trends.Series(id, v.subject, ex.windowRef(t.Window), 8)
		}
		v.entity = sum
		return nil

	case *Predict:
		if err := ex.eval(t.Input, w, v, tr); err != nil {
			return err
		}
		if !v.subjectOK || !v.objectOK {
			return nil
		}
		if !v.has {
			v.plausible = ex.Model.Score(v.subject, t.Predicate, v.object)
		}
		return nil

	case *PathExplain:
		return ex.evalPathExplain(t, v)

	case *Diff:
		return ex.evalDiff(t, v, tr)
	}
	return fmt.Errorf("plan: unknown operator %T", n)
}

func (ex *Executor) evalScan(t *Scan, w temporal.Window, v *value) error {
	switch t.Source {
	case SourceFactsAbout:
		name, ok := ex.resolve(t.Subject)
		v.subject, v.subjectOK = name, ok
		if ok {
			v.facts = ex.KG.FactsAboutWindow(name, w)
		}
	case SourceObjects:
		name, ok := ex.resolve(t.Subject)
		v.subject, v.subjectOK = name, ok
		if ok {
			v.scored = ex.KG.ObjectsOfWindow(name, t.Predicate, w)
		}
	case SourceSubjects:
		name, ok := ex.resolve(t.Object)
		v.object, v.objectOK = name, ok
		if ok {
			v.scored = ex.KG.SubjectsOfWindow(t.Predicate, name, w)
		}
	case SourceFactCheck:
		s, ok1 := ex.resolve(t.Subject)
		o, ok2 := ex.resolve(t.Object)
		v.subject, v.subjectOK = s, ok1
		v.object, v.objectOK = o, ok2
		if ok1 && ok2 {
			v.has = ex.KG.HasFactWindow(s, t.Predicate, o, w)
			if v.has {
				// Evidence pool for the provenance listing.
				v.facts = ex.KG.FactsAboutWindow(s, w)
			}
		}
	case SourcePatterns:
		v.patterns = ex.Miner.ClosedPatterns(t.K)
	case SourceStream:
		// DatedIn never materializes the curated substrate; the flag check
		// guards the rare dated-but-curated fact, which is timeless
		// background visible in every window (it would otherwise surface as
		// a spurious diff when only one side of the diff covers its
		// timestamp).
		for _, id := range ex.TIndex.DatedIn(w) {
			if f, ok := ex.KG.Fact(id); ok && !f.Curated {
				v.facts = append(v.facts, f)
			}
		}
	default:
		return fmt.Errorf("plan: unknown scan source %q", t.Source)
	}
	return nil
}

// evalTrendScan reads the trend table: at the query clock for the unbounded
// window, and across every bucket inside a bounded one.
func (ex *Executor) evalTrendScan(t *TrendScan, v *value) error {
	w := t.Window
	if w.IsEmpty() {
		return nil
	}
	if !w.Bounded() {
		v.trends = ex.Trends.Trending(ex.Now(), 0)
		return nil
	}
	v.trends = ex.Trends.Window(w, 0)
	v.backfilled = true
	return nil
}

func (ex *Executor) evalPathExplain(t *PathExplain, v *value) error {
	s, ok1 := ex.resolve(t.Subject)
	o, ok2 := ex.resolve(t.Object)
	v.subject, v.subjectOK = s, ok1
	v.object, v.objectOK = o, ok2
	if !ok1 || !ok2 {
		return nil
	}
	src, _ := ex.KG.Entity(s)
	dst, _ := ex.KG.Entity(o)
	paths := ex.Searcher.TopK(src, dst, pathsearch.Options{K: t.K, MaxDepth: 4, Predicate: t.Predicate, Window: t.Window})
	for _, p := range paths {
		ep := ExplainedPath{Coherence: p.Coherence}
		for i, e := range p.Edges {
			u := p.Vertices[i]
			vv := p.Vertices[i+1]
			un, _ := ex.KG.EntityName(u)
			vn, _ := ex.KG.EntityName(vv)
			arrow := fmt.Sprintf("%s -[%s]-> %s", un, e.Label, vn)
			if e.Src == vv { // traversed against edge direction
				arrow = fmt.Sprintf("%s <-[%s]- %s", un, e.Label, vn)
			}
			ep.Hops = append(ep.Hops, arrow)
		}
		v.paths = append(v.paths, ep)
	}
	return nil
}

// factKey matches facts across windows by their logical triple, so repeated
// mentions of the same statement in both windows count as unchanged.
func factKey(f core.Fact) string {
	return f.Subject + "\x1f" + f.Predicate + "\x1f" + f.Object
}

// attributable filters a diff side down to facts that can be attributed to
// a window: curated facts stay (visible everywhere, they cancel out across
// the two sides), but undated extracted facts — whose edges sit on the
// timeless sentinel, outside every dated index read — are dropped, matching
// the whole-stream side's DatedIn semantics. Without this, a window
// unbounded below would claim them for its side only and report a fact of
// unknown date as a change.
func attributable(fs []core.Fact) []core.Fact {
	out := make([]core.Fact, 0, len(fs))
	for _, f := range fs {
		if !f.Curated && f.Provenance.Time.Unix() <= temporal.Timeless {
			continue
		}
		out = append(out, f)
	}
	return out
}

func (ex *Executor) evalDiff(t *Diff, v *value, tr *Trace) error {
	var va, vb value
	if err := ex.eval(t.A, temporal.All(), &va, tr); err != nil {
		return err
	}
	if err := ex.eval(t.B, temporal.All(), &vb, tr); err != nil {
		return err
	}
	// Entity diffs resolve the same surface form in both children; surface
	// the A-side resolution for the renderer's unknown-entity message.
	v.subject, v.subjectOK = va.subject, va.subjectOK
	if t.Entity != "" && !v.subjectOK {
		return nil
	}
	va.facts = attributable(va.facts)
	vb.facts = attributable(vb.facts)

	aKeys := make(map[string]bool, len(va.facts))
	for _, f := range va.facts {
		aKeys[factKey(f)] = true
	}
	bKeys := make(map[string]bool, len(vb.facts))
	for _, f := range vb.facts {
		bKeys[factKey(f)] = true
	}
	d := &DiffAnswer{Entity: v.subject, WindowA: t.WindowA, WindowB: t.WindowB,
		Added: []core.Fact{}, Removed: []core.Fact{}}
	seen := map[string]bool{}
	for _, f := range vb.facts {
		k := factKey(f)
		if aKeys[k] || seen[k] {
			continue
		}
		seen[k] = true
		d.Added = append(d.Added, f)
	}
	seen = map[string]bool{}
	for _, f := range va.facts {
		k := factKey(f)
		if bKeys[k] || seen[k] {
			continue
		}
		seen[k] = true
		d.Removed = append(d.Removed, f)
	}
	for k := range aKeys {
		if bKeys[k] {
			d.Unchanged++
		}
	}
	v.diff = d
	return nil
}

// render turns an evaluated plan into its final answer. The per-class
// renderings reproduce the pre-planner executor byte for byte (pinned by
// internal/qa's planner reference test); diff and backfilled trending are
// new surfaces with their own formats.
func render(p *Plan, v *value) (r Result, err error) {
	switch p.Class {
	case "trending":
		r = renderTrending(p, v)
	case "entity":
		r = renderEntity(p, v)
	case "relationship":
		r = renderRelationship(p, v)
	case "pattern":
		r = renderPatterns(v)
	case "fact":
		r, err = renderFact(p, v)
	case "diff":
		r = renderDiff(p, v)
	default:
		return Result{}, fmt.Errorf("plan: unknown plan class %q", p.Class)
	}
	r.Class = p.Class
	return r, err
}

func renderTrending(p *Plan, v *value) Result {
	r := Result{Trends: v.trends}
	var b strings.Builder
	switch {
	case v.backfilled:
		fmt.Fprintf(&b, "Trending in %s (windowed backfill):\n", p.Window)
	case p.Window.Bounded():
		fmt.Fprintf(&b, "Trending in %s:\n", p.Window)
	default:
		b.WriteString("Trending now:\n")
	}
	if len(r.Trends) == 0 {
		b.WriteString("  (nothing trending)\n")
	}
	for i, t := range r.Trends {
		fmt.Fprintf(&b, "  %2d. %-30s %-9s burst=%.1fx (%d mentions, baseline %.1f)\n",
			i+1, t.Name, t.Kind, t.Score, t.Current, t.Baseline)
	}
	r.Text = b.String()
	return r
}

// writeFactLine renders one fact with the given line prefix — the shared
// format of entity summaries and diff listings.
func writeFactLine(b *strings.Builder, prefix string, f core.Fact) {
	marker := "extracted"
	if f.Curated {
		marker = "curated"
	}
	fmt.Fprintf(b, "%s%s -[%s]-> %s  (p=%.2f, %s", prefix, f.Subject, f.Predicate, f.Object, f.Confidence, marker)
	if f.Provenance.Source != "" {
		fmt.Fprintf(b, ", src=%s", f.Provenance.Source)
	}
	b.WriteString(")\n")
}

func renderEntity(p *Plan, v *value) Result {
	var r Result
	if !v.subjectOK {
		r.Text = fmt.Sprintf("I don't know anything about %q.", p.Subject)
		return r
	}
	sum := v.entity
	r.Entity = sum

	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)  importance=%.4f\n", sum.Name, sum.Type, sum.Importance)
	if p.Window.Bounded() {
		fmt.Fprintf(&b, "  window: %s\n", p.Window)
	}
	if len(sum.Activity) > 0 {
		fmt.Fprintf(&b, "  recent activity: %v\n", sum.Activity)
	}
	for _, f := range sum.Facts {
		writeFactLine(&b, "  ", f)
	}
	r.Text = b.String()
	return r
}

func renderRelationship(p *Plan, v *value) Result {
	var r Result
	if !v.subjectOK || !v.objectOK {
		r.Text = fmt.Sprintf("cannot resolve %q and/or %q", p.Subject, p.Object)
		return r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Paths from %s to %s", v.subject, v.object)
	if p.Predicate != "" {
		fmt.Fprintf(&b, " via %s", p.Predicate)
	}
	if p.Window.Bounded() {
		fmt.Fprintf(&b, " within %s", p.Window)
	}
	b.WriteString(":\n")
	if len(v.paths) == 0 {
		b.WriteString("  (no connecting path found)\n")
	}
	for _, ep := range v.paths {
		r.Paths = append(r.Paths, ep)
		fmt.Fprintf(&b, "  coherence=%.4f: %s\n", ep.Coherence, strings.Join(ep.Hops, " ; "))
	}
	r.Text = b.String()
	return r
}

func renderPatterns(v *value) Result {
	r := Result{Patterns: v.patterns}
	var b strings.Builder
	b.WriteString("Closed frequent patterns in the current window:\n")
	if len(r.Patterns) == 0 {
		b.WriteString("  (none above support threshold)\n")
	}
	for _, pat := range r.Patterns {
		fmt.Fprintf(&b, "  support=%-4d %s\n", pat.Support, pat)
	}
	r.Text = b.String()
	return r
}

func renderFact(p *Plan, v *value) (Result, error) {
	var r Result
	fa := &FactAnswer{}
	r.Fact = fa
	var b strings.Builder

	switch {
	case p.Subject != "" && p.Object != "": // did S p O?
		if !v.subjectOK || !v.objectOK {
			r.Text = fmt.Sprintf("cannot resolve %q / %q", p.Subject, p.Object)
			return r, nil
		}
		fa.Known = v.has
		if fa.Known {
			fmt.Fprintf(&b, "Yes: %s %s %s.\n", v.subject, p.Predicate, v.object)
			for _, f := range v.facts {
				if f.Predicate == p.Predicate && f.Object == v.object {
					src := f.Provenance.Source
					if f.Provenance.Sentence != "" {
						src += ": " + f.Provenance.Sentence
					}
					fa.Provenance = append(fa.Provenance, src)
					fmt.Fprintf(&b, "  evidence (p=%.2f): %s\n", f.Confidence, src)
				}
			}
		} else {
			fa.Plausible = v.plausible
			fmt.Fprintf(&b, "Not in the knowledge graph. Plausibility score: %.2f\n", fa.Plausible)
		}
	case p.Subject != "": // what does S p?
		if !v.subjectOK {
			r.Text = fmt.Sprintf("cannot resolve %q", p.Subject)
			return r, nil
		}
		fa.Matches = v.scored
		fa.Known = len(fa.Matches) > 0
		fmt.Fprintf(&b, "%s %s:\n", v.subject, p.Predicate)
		for _, m := range fa.Matches {
			fmt.Fprintf(&b, "  %s (p=%.2f)\n", m.Name, m.Score)
		}
		if len(fa.Matches) == 0 {
			b.WriteString("  (no known facts)\n")
		}
	case p.Object != "": // who p O?
		if !v.objectOK {
			r.Text = fmt.Sprintf("cannot resolve %q", p.Object)
			return r, nil
		}
		fa.Matches = v.scored
		fa.Known = len(fa.Matches) > 0
		fmt.Fprintf(&b, "%s %s:\n", p.Predicate, v.object)
		for _, m := range fa.Matches {
			fmt.Fprintf(&b, "  %s (p=%.2f)\n", m.Name, m.Score)
		}
		if len(fa.Matches) == 0 {
			b.WriteString("  (no known facts)\n")
		}
	default:
		return r, fmt.Errorf("qa: fact query without arguments")
	}
	r.Text = b.String()
	return r, nil
}

func renderDiff(p *Plan, v *value) Result {
	var r Result
	if p.Subject != "" && !v.subjectOK {
		r.Text = fmt.Sprintf("I don't know anything about %q.", p.Subject)
		return r
	}
	d := v.diff
	r.Diff = d
	var b strings.Builder
	if d.Entity != "" {
		fmt.Fprintf(&b, "Changes about %s between %s and %s:\n", d.Entity, d.WindowA, d.WindowB)
	} else {
		fmt.Fprintf(&b, "Changes between %s and %s:\n", d.WindowA, d.WindowB)
	}
	for _, f := range d.Added {
		writeFactLine(&b, "  + ", f)
	}
	for _, f := range d.Removed {
		writeFactLine(&b, "  - ", f)
	}
	if len(d.Added) == 0 && len(d.Removed) == 0 {
		b.WriteString("  (no changes)\n")
	}
	fmt.Fprintf(&b, "  (%d facts unchanged)\n", d.Unchanged)
	r.Text = b.String()
	return r
}
