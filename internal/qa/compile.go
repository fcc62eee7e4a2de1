package qa

import (
	"fmt"
	"sort"
	"time"

	"nous/internal/plan"
	"nous/internal/temporal"
)

// CompileAt parses a question at the reference time now, intersects the
// caller's window w (e.g. the API's since/until parameters) with the
// question's own — both windows of a diff question — and lowers the result
// into its logical plan. The unbounded w leaves the question's scope
// untouched.
func CompileAt(question string, now time.Time, w temporal.Window) (*plan.Plan, error) {
	q, err := ParseAt(question, now)
	if err != nil {
		return nil, err
	}
	q.Window = q.Window.Intersect(w)
	if q.Class == ClassDiff {
		q.WindowB = q.WindowB.Intersect(w)
	}
	return Lower(q)
}

// Lower compiles a parsed query into its logical plan. Every query class
// maps onto a small operator tree; see internal/plan for the operators.
func Lower(q Query) (*plan.Plan, error) {
	switch q.Class {
	case ClassTrending:
		return plan.TrendingPlan(q.Window, q.K), nil
	case ClassEntity:
		return plan.EntityPlan(q.Subject, q.Window, q.K), nil
	case ClassRelationship:
		return plan.RelationshipPlan(q.Subject, q.Object, q.Predicate, q.K, q.Window), nil
	case ClassPattern:
		return plan.PatternsPlan(q.K), nil
	case ClassFact:
		return plan.FactPlan(q.Subject, q.Predicate, q.Object, q.Window)
	case ClassDiff:
		return plan.DiffPlan(q.Subject, q.Window, q.WindowB), nil
	}
	return nil, fmt.Errorf("qa: unknown query class %q", q.Class)
}

// Classes returns the supported query classes with an example each — the
// five classes of the paper's Figure 5 plus the temporal diff class the
// planner adds.
func Classes() []string {
	out := []string{
		string(ClassTrending) + `: "What is trending?"`,
		string(ClassEntity) + `: "Tell me about DJI"`,
		string(ClassRelationship) + `: "How is Windermere related to DJI via acquired?"`,
		string(ClassPattern) + `: "What patterns are emerging?"`,
		string(ClassFact) + `: "Did Amazon acquire Aeros?"`,
		string(ClassDiff) + `: "What changed about DJI between 2015 and 2016?"`,
	}
	sort.Strings(out)
	return out
}
