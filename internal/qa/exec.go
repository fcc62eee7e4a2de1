package qa

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"nous/internal/analytics"
	"nous/internal/core"
	"nous/internal/disambig"
	"nous/internal/fgm"
	"nous/internal/linkpred"
	"nous/internal/pathsearch"
	"nous/internal/plan"
	"nous/internal/temporal"
	"nous/internal/trends"
)

// Answer is a structured query result plus a rendered text form.
type Answer struct {
	Class Class
	Text  string

	// Per-class payloads (only the one matching Class is populated).
	Trends   []trends.Trend
	Entity   *EntitySummary
	Paths    []ExplainedPath
	Patterns []fgm.Pattern
	Fact     *FactAnswer
	Diff     *DiffAnswer
}

// Payload types live in internal/plan (the layer that computes them); the
// aliases keep qa's public API stable.
type (
	// EntitySummary is the payload of "Tell me about X" (Fig 6).
	EntitySummary = plan.EntitySummary
	// ExplainedPath is one relationship explanation.
	ExplainedPath = plan.ExplainedPath
	// FactAnswer answers did/who/what fact queries.
	FactAnswer = plan.FactAnswer
	// DiffAnswer is the payload of a temporal diff query.
	DiffAnswer = plan.DiffAnswer
)

// Executor answers parsed queries by lowering them into logical plans
// (internal/plan) and running the plan executor — a thin compile-and-run
// shim over the query planner. Any dependency may be nil; execution degrades
// gracefully (e.g. no miner → pattern queries report emptiness).
type Executor struct {
	KG       *core.KG
	Trends   *trends.Detector
	Miner    *fgm.Miner
	Searcher *pathsearch.Searcher
	Model    *linkpred.Model
	Linker   *disambig.Linker
	// Analytics supplies epoch-memoized whole-graph artifacts (PageRank
	// importance). When nil, entity summaries report zero importance rather
	// than recomputing PageRank per request.
	Analytics *analytics.Cache
	// TIndex enables the plan operators that read the time-ordered edge
	// index directly: windowed trend backfill and whole-stream diffs. When
	// nil, trending degrades to the live detector anchored at the window's
	// end.
	TIndex *temporal.Index
	// Now supplies the query-time clock (defaults to time.Now).
	Now func() time.Time

	statsOnce sync.Once
	stats     *plan.ExecStats

	resultsOnce sync.Once
	results     *analytics.ResultMemo[string, plan.Result]
}

// Ask parses and executes a question. Temporal qualifiers in the question
// ("last week", "in 2015") scope the answer; relative forms resolve against
// the executor's clock.
func (ex *Executor) Ask(question string) (Answer, error) {
	return ex.AskWindow(question, temporal.All())
}

// AskWindow is Ask with an additional caller-supplied window (e.g. the API's
// since/until parameters). It is intersected with any window parsed from the
// question itself (both windows of a diff question); the unbounded window
// leaves the question's own scope untouched.
func (ex *Executor) AskWindow(question string, w temporal.Window) (Answer, error) {
	q, err := ParseAt(question, ex.now())
	if err != nil {
		return Answer{}, err
	}
	q.Window = q.Window.Intersect(w)
	if q.Class == ClassDiff {
		q.WindowB = q.WindowB.Intersect(w)
	}
	return ex.Run(q)
}

// Run compiles a parsed query into a logical plan, optimizes it against the
// storage statistics and executes it — serving cacheable classes (diff,
// windowed trend backfill) through the epoch-keyed plan-result cache.
func (ex *Executor) Run(q Query) (Answer, error) {
	p, err := Lower(q)
	if err != nil {
		return Answer{}, err
	}
	r, err := ex.runPlan(p)
	if err != nil {
		return Answer{}, err
	}
	return Answer{
		Class:    q.Class,
		Text:     r.Text,
		Trends:   r.Trends,
		Entity:   r.Entity,
		Paths:    r.Paths,
		Patterns: r.Patterns,
		Fact:     r.Fact,
		Diff:     r.Diff,
	}, nil
}

// Plan parses a question and lowers it into its logical plan without
// executing it — the compile half of Run, for explain-style inspection
// (GET /api/v1/plan). The caller window intersects like AskWindow.
func (ex *Executor) Plan(question string, w temporal.Window) (*plan.Plan, error) {
	q, err := ParseAt(question, ex.now())
	if err != nil {
		return nil, err
	}
	q.Window = q.Window.Intersect(w)
	if q.Class == ClassDiff {
		q.WindowB = q.WindowB.Intersect(w)
	}
	return Lower(q)
}

// runPlan executes a lowered plan: Optimize rewrites a statistics-annotated
// clone (the lowered plan itself stays the untouched reference), and plans
// whose results are pure functions of (epoch, plan) are memoized in the
// plan-result cache — a repeat at an unchanged epoch is a map read instead
// of a dated-stream re-materialization. The cache key normalizes the
// *reference* plan, so what the optimizer decided can never split or alias
// cache entries.
func (ex *Executor) runPlan(p *plan.Plan) (plan.Result, error) {
	opt := plan.Optimize(p, ex.cardinality())
	if memo := ex.resultMemo(); memo != nil && plan.Cacheable(p, ex.TIndex != nil) {
		epoch := ex.KG.Graph().Epoch()
		r, _, err := memo.Get(epoch, plan.Normalize(p), func() (plan.Result, uint64, error) {
			r, err := ex.planner().Run(opt.Plan)
			return r, epoch, err
		})
		return r, err
	}
	return ex.planner().Run(opt.Plan)
}

// cardinality assembles the optimizer's statistics view, or nil without a
// graph to read counters from.
func (ex *Executor) cardinality() plan.Cardinality {
	if ex.KG == nil {
		return nil
	}
	gs := &plan.GraphStats{KG: ex.KG, TIndex: ex.TIndex}
	if ex.Trends != nil {
		gs.TrendBucketSec = int64(ex.Trends.Config().Bucket / time.Second)
	}
	return gs
}

// planCacheEntries caps the plan-result cache; beyond it the
// least-recently-used plan is evicted.
const planCacheEntries = 256

// resultMemo returns the shared plan-result cache, creating it on first use;
// nil without a graph (no epoch to key on). Results are epoch-exact, so
// replicas serve byte-identical reads at equal epochs.
func (ex *Executor) resultMemo() *analytics.ResultMemo[string, plan.Result] {
	if ex.KG == nil {
		return nil
	}
	ex.resultsOnce.Do(func() {
		ex.results = analytics.NewResultMemo[string, plan.Result](planCacheEntries)
	})
	return ex.results
}

// PlanReport is one executed explain: the optimized plan with its row
// estimates, the traced actual rows (nil when the answer came from the plan
// cache — nothing executed), and the cache's view of the question.
type PlanReport struct {
	Plan   *plan.Plan   // the lowered reference plan
	Costed *plan.Costed // optimized tree + est_rows annotations
	Trace  *plan.Trace  // actual_rows; nil on a cache hit
	// Cacheable reports whether the plan's class and shape qualify for the
	// plan-result cache; Cached whether a fresh result was already cached
	// at the current epoch when the explain ran.
	Cacheable bool
	Cached    bool
}

// Explain renders the costed explain tree (est_rows vs actual_rows).
func (r *PlanReport) Explain() string { return r.Costed.Explain(r.Trace) }

// Describe renders the costed operator tree in JSON-able form.
func (r *PlanReport) Describe() plan.NodeDesc { return r.Costed.Describe(r.Trace) }

// ExplainQuery compiles, optimizes and *executes* a question, reporting the
// costed plan with per-operator estimated and actual rows — the engine
// behind GET /api/v1/plan. Cacheable questions go through the plan cache: an
// explain of an already-cached question reports Cached=true and carries no
// actual_rows (nothing was executed), and a cold explain leaves the cache
// warm for the subsequent real query.
func (ex *Executor) ExplainQuery(question string, w temporal.Window) (*PlanReport, error) {
	p, err := ex.Plan(question, w)
	if err != nil {
		return nil, err
	}
	opt := plan.Optimize(p, ex.cardinality())
	rep := &PlanReport{Plan: p, Costed: opt}
	memo := ex.resultMemo()
	rep.Cacheable = memo != nil && plan.Cacheable(p, ex.TIndex != nil)
	if rep.Cacheable {
		epoch := ex.KG.Graph().Epoch()
		key := plan.Normalize(p)
		if _, rep.Cached = memo.Peek(epoch, key); rep.Cached {
			return rep, nil
		}
		var tr *plan.Trace
		if _, _, err := memo.Get(epoch, key, func() (plan.Result, uint64, error) {
			r, t, err := ex.planner().RunTraced(opt.Plan)
			tr = t
			return r, epoch, err
		}); err != nil {
			return nil, err
		}
		rep.Trace = tr // nil when a concurrent flight computed instead
		return rep, nil
	}
	_, tr, err := ex.planner().RunTraced(opt.Plan)
	if err != nil {
		return nil, err
	}
	rep.Trace = tr
	return rep, nil
}

// PlanStats reports the planner's execution counters (plans by class,
// operators by kind) plus the plan-result cache's counters.
func (ex *Executor) PlanStats() plan.Stats {
	st := ex.planStats().Snapshot()
	if m := ex.resultMemo(); m != nil {
		ms := m.Stats()
		st.Cache = &plan.CacheStats{
			Hits:      ms.Hits,
			Misses:    ms.Misses,
			Coalesced: ms.Coalesced,
			Evictions: ms.Evictions,
			Entries:   ms.Entries,
		}
	}
	return st
}

// planStats returns the shared stats sink, creating it on first use. Every
// reader and writer goes through the once, so a stats read concurrent with
// the first query is race-free.
func (ex *Executor) planStats() *plan.ExecStats {
	ex.statsOnce.Do(func() { ex.stats = plan.NewStats() })
	return ex.stats
}

// planner assembles the plan executor over this executor's dependencies.
// The stats sink is shared across calls so counters accumulate.
func (ex *Executor) planner() *plan.Executor {
	return &plan.Executor{
		KG:        ex.KG,
		Trends:    ex.Trends,
		Miner:     ex.Miner,
		Searcher:  ex.Searcher,
		Model:     ex.Model,
		Linker:    ex.Linker,
		Analytics: ex.Analytics,
		TIndex:    ex.TIndex,
		Now:       ex.Now,
		Stats:     ex.planStats(),
	}
}

func (ex *Executor) now() time.Time {
	if ex.Now != nil {
		return ex.Now()
	}
	return time.Now()
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
