package qa

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"nous/internal/disambig"
	"nous/internal/pathsearch"
	"nous/internal/plan"
	"nous/internal/temporal"
)

// legacyExec is the pre-planner executor, kept as a test fixture: one
// hard-wired code path per question class, exactly as it ran before the
// refactor onto internal/plan, minus its branches for detached
// dependencies (the executor now always has every one). The reference test
// below runs every legacy question class through both this fixture and the
// planner and asserts byte-identical answers.
type legacyExec struct {
	*plan.Executor
}

func (ex legacyExec) run(q Query) (plan.Result, error) {
	switch q.Class {
	case ClassTrending:
		return ex.trending(q)
	case ClassEntity:
		return ex.entity(q)
	case ClassRelationship:
		return ex.relationship(q)
	case ClassPattern:
		return ex.patterns(q)
	case ClassFact:
		return ex.fact(q)
	}
	return plan.Result{}, fmt.Errorf("qa: unknown query class %q", q.Class)
}

func (ex legacyExec) windowRef(w temporal.Window) time.Time {
	if w.Bounded() && w.Until != math.MaxInt64 {
		return time.Unix(w.Until-1, 0)
	}
	return ex.Now()
}

func (ex legacyExec) trending(q Query) (plan.Result, error) {
	a := plan.Result{Class: string(ClassTrending)}
	if !q.Window.IsEmpty() {
		a.Trends = ex.Trends.Trending(ex.windowRef(q.Window), q.K)
	}
	var b strings.Builder
	if q.Window.Bounded() {
		fmt.Fprintf(&b, "Trending in %s:\n", q.Window)
	} else {
		b.WriteString("Trending now:\n")
	}
	if len(a.Trends) == 0 {
		b.WriteString("  (nothing trending)\n")
	}
	for i, t := range a.Trends {
		fmt.Fprintf(&b, "  %2d. %-30s %-9s burst=%.1fx (%d mentions, baseline %.1f)\n",
			i+1, t.Name, t.Kind, t.Score, t.Current, t.Baseline)
	}
	a.Text = b.String()
	return a, nil
}

func (ex legacyExec) resolve(surface string) (string, bool) {
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

func (ex legacyExec) entity(q Query) (plan.Result, error) {
	a := plan.Result{Class: string(ClassEntity)}
	name, ok := ex.resolve(q.Subject)
	if !ok {
		a.Text = fmt.Sprintf("I don't know anything about %q.", q.Subject)
		return a, nil
	}
	typ, _ := ex.KG.EntityType(name)
	sum := &plan.EntitySummary{Name: name, Type: string(typ)}
	id, ok := ex.KG.Entity(name)
	if ok {
		sum.Importance = ex.Analytics.WindowedImportance(id, q.Window)
	} else {
		id = -1
	}
	facts := ex.KG.FactsAboutWindow(name, q.Window)
	if q.K > 0 && len(facts) > q.K {
		facts = facts[:q.K]
	}
	sum.Facts = facts
	if !q.Window.IsEmpty() {
		sum.Activity = ex.Trends.Series(id, name, ex.windowRef(q.Window), 8)
	}
	a.Entity = sum

	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)  importance=%.4f\n", sum.Name, sum.Type, sum.Importance)
	if q.Window.Bounded() {
		fmt.Fprintf(&b, "  window: %s\n", q.Window)
	}
	if len(sum.Activity) > 0 {
		fmt.Fprintf(&b, "  recent activity: %v\n", sum.Activity)
	}
	for _, f := range sum.Facts {
		marker := "extracted"
		if f.Curated {
			marker = "curated"
		}
		fmt.Fprintf(&b, "  %s -[%s]-> %s  (p=%.2f, %s", f.Subject, f.Predicate, f.Object, f.Confidence, marker)
		if f.Provenance.Source != "" {
			fmt.Fprintf(&b, ", src=%s", f.Provenance.Source)
		}
		b.WriteString(")\n")
	}
	a.Text = b.String()
	return a, nil
}

func (ex legacyExec) relationship(q Query) (plan.Result, error) {
	a := plan.Result{Class: string(ClassRelationship)}
	sName, ok1 := ex.resolve(q.Subject)
	tName, ok2 := ex.resolve(q.Object)
	if !ok1 || !ok2 {
		a.Text = fmt.Sprintf("cannot resolve %q and/or %q", q.Subject, q.Object)
		return a, nil
	}
	src, _ := ex.KG.Entity(sName)
	dst, _ := ex.KG.Entity(tName)
	paths := ex.Searcher.TopK(src, dst, pathsearch.Options{K: q.K, MaxDepth: 4, Predicate: q.Predicate, Window: q.Window})
	var b strings.Builder
	fmt.Fprintf(&b, "Paths from %s to %s", sName, tName)
	if q.Predicate != "" {
		fmt.Fprintf(&b, " via %s", q.Predicate)
	}
	if q.Window.Bounded() {
		fmt.Fprintf(&b, " within %s", q.Window)
	}
	b.WriteString(":\n")
	if len(paths) == 0 {
		b.WriteString("  (no connecting path found)\n")
	}
	for _, p := range paths {
		ep := plan.ExplainedPath{Coherence: p.Coherence}
		for i, e := range p.Edges {
			u := p.Vertices[i]
			v := p.Vertices[i+1]
			un, _ := ex.KG.EntityName(u)
			vn, _ := ex.KG.EntityName(v)
			arrow := fmt.Sprintf("%s -[%s]-> %s", un, e.Label, vn)
			if e.Src == v { // traversed against edge direction
				arrow = fmt.Sprintf("%s <-[%s]- %s", un, e.Label, vn)
			}
			ep.Hops = append(ep.Hops, arrow)
		}
		a.Paths = append(a.Paths, ep)
		fmt.Fprintf(&b, "  coherence=%.4f: %s\n", ep.Coherence, strings.Join(ep.Hops, " ; "))
	}
	a.Text = b.String()
	return a, nil
}

func (ex legacyExec) patterns(q Query) (plan.Result, error) {
	a := plan.Result{Class: string(ClassPattern)}
	ps := ex.Miner.ClosedPatterns(0)
	if q.K > 0 && len(ps) > q.K {
		ps = ps[:q.K]
	}
	a.Patterns = ps
	var b strings.Builder
	b.WriteString("Closed frequent patterns in the current window:\n")
	if len(ps) == 0 {
		b.WriteString("  (none above support threshold)\n")
	}
	for _, p := range ps {
		fmt.Fprintf(&b, "  support=%-4d %s\n", p.Support, p)
	}
	a.Text = b.String()
	return a, nil
}

func (ex legacyExec) fact(q Query) (plan.Result, error) {
	a := plan.Result{Class: string(ClassFact)}
	fa := &plan.FactAnswer{}
	a.Fact = fa
	var b strings.Builder

	switch {
	case q.Subject != "" && q.Object != "": // did S p O?
		s, ok1 := ex.resolve(q.Subject)
		o, ok2 := ex.resolve(q.Object)
		if !ok1 || !ok2 {
			a.Text = fmt.Sprintf("cannot resolve %q / %q", q.Subject, q.Object)
			return a, nil
		}
		fa.Known = ex.KG.HasFactWindow(s, q.Predicate, o, q.Window)
		if fa.Known {
			fmt.Fprintf(&b, "Yes: %s %s %s.\n", s, q.Predicate, o)
			for _, f := range ex.KG.FactsAboutWindow(s, q.Window) {
				if f.Predicate == q.Predicate && f.Object == o {
					src := f.Provenance.Source
					if f.Provenance.Sentence != "" {
						src += ": " + f.Provenance.Sentence
					}
					fa.Provenance = append(fa.Provenance, src)
					fmt.Fprintf(&b, "  evidence (p=%.2f): %s\n", f.Confidence, src)
				}
			}
		} else {
			fa.Plausible = ex.Model.Score(s, q.Predicate, o)
			fmt.Fprintf(&b, "Not in the knowledge graph. Plausibility score: %.2f\n", fa.Plausible)
		}
	case q.Subject != "": // what does S p?
		s, ok := ex.resolve(q.Subject)
		if !ok {
			a.Text = fmt.Sprintf("cannot resolve %q", q.Subject)
			return a, nil
		}
		fa.Matches = ex.KG.ObjectsOfWindow(s, q.Predicate, q.Window)
		fa.Known = len(fa.Matches) > 0
		fmt.Fprintf(&b, "%s %s:\n", s, q.Predicate)
		for _, m := range fa.Matches {
			fmt.Fprintf(&b, "  %s (p=%.2f)\n", m.Name, m.Score)
		}
		if len(fa.Matches) == 0 {
			b.WriteString("  (no known facts)\n")
		}
	case q.Object != "": // who p O?
		o, ok := ex.resolve(q.Object)
		if !ok {
			a.Text = fmt.Sprintf("cannot resolve %q", q.Object)
			return a, nil
		}
		fa.Matches = ex.KG.SubjectsOfWindow(q.Predicate, o, q.Window)
		fa.Known = len(fa.Matches) > 0
		fmt.Fprintf(&b, "%s %s:\n", q.Predicate, o)
		for _, m := range fa.Matches {
			fmt.Fprintf(&b, "  %s (p=%.2f)\n", m.Name, m.Score)
		}
		if len(fa.Matches) == 0 {
			b.WriteString("  (no known facts)\n")
		}
	default:
		return a, fmt.Errorf("qa: fact query without arguments")
	}
	a.Text = b.String()
	return a, nil
}

// referenceQuestions is the legacy matrix: every question class of Fig 5,
// with and without temporal qualifiers, including unresolvable arguments.
var referenceQuestions = []string{
	"What is trending?",
	"What was trending last week?",
	"Tell me about DJI",
	"Tell me about Windermere",
	"Tell me about Windermere in 2015",
	"Tell me about DJI in 2014",
	"Tell me about Zorblatt",
	"How is Windermere related to DJI?",
	"How is Windermere related to DJI in 2015?",
	"How is Windermere related to DJI in 2014?",
	"How is Zorblatt related to DJI?",
	"Explain the relationship between DJI and GoPro",
	"What patterns are emerging?",
	"Did GoPro acquire Aeros Labs?",
	"Did GoPro acquire Aeros Labs in 2014?",
	"Did DJI acquire GoPro?",
	"What does DJI manufacture?",
	"What does DJI manufacture since 2015?",
	"Who acquired Aeros Labs?",
	"Where is DJI headquartered?",
}

// TestPlannerByteIdenticalToLegacyExecutor is the refactor's acceptance
// reference: every legacy question class answered through internal/plan must
// be byte-identical (text and structured payload) to the pre-refactor
// direct executor, across parsed questions and caller-supplied windows.
// Trending compares only where the legacy path still applies: under the
// unbounded window (live trending) and under an empty one. A bounded,
// non-empty trending window is a backfill across the window's buckets, which
// the legacy code never had; it keeps its own tests in internal/plan.
func TestPlannerByteIdenticalToLegacyExecutor(t *testing.T) {
	ex := buildExecutor(t)
	legacy := legacyExec{ex}
	now := ex.Now()

	windows := []temporal.Window{
		temporal.All(),
		{Since: math.MinInt64 + 1, Until: math.MaxInt64 - 1},
		temporal.Between(time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)),
		{Since: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), Until: math.MaxInt64},
	}
	for _, question := range referenceQuestions {
		for _, w := range windows {
			q, err := ParseAt(question, now)
			if err != nil {
				t.Fatalf("ParseAt(%q): %v", question, err)
			}
			q.Window = q.Window.Intersect(w)
			if q.Class == ClassTrending && q.Window.Bounded() && !q.Window.IsEmpty() {
				continue
			}

			want, err1 := legacy.run(q)
			got, err2 := runQuery(ex, q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%q (window %v): legacy err %v vs planner err %v", question, w, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if want.Text != got.Text {
				t.Fatalf("%q (window %v) text diverges:\nlegacy:\n%q\nplanner:\n%q", question, w, want.Text, got.Text)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%q (window %v) structured answer diverges:\nlegacy:  %+v\nplanner: %+v", question, w, want, got)
			}
		}
	}
}

// runQuery lowers a parsed query and runs it.
func runQuery(ex *plan.Executor, q Query) (plan.Result, error) {
	p, err := Lower(q)
	if err != nil {
		return plan.Result{}, err
	}
	return ex.Run(p)
}

// TestPlannerUnknownClassAndEmptyFact pins the error contract Lower shares
// with the legacy executor.
func TestPlannerUnknownClassAndEmptyFact(t *testing.T) {
	if _, err := Lower(Query{Class: Class("nonsense")}); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := Lower(Query{Class: ClassFact}); err == nil {
		t.Fatal("fact query without arguments accepted")
	}
}
