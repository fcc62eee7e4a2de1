// Package nous is a from-scratch Go reproduction of NOUS (Choudhury et al.,
// ICDE 2017): construction and querying of dynamic knowledge graphs. It
// fuses a curated knowledge base with knowledge continuously extracted from
// streaming text, estimates per-fact confidence with BPR link prediction,
// mines closed frequent graph patterns over a sliding window, and answers
// five classes of questions — trending, entity, relationship (explanatory),
// pattern and fact queries — over the fused, dynamic graph.
//
// The graph substrate is ID-indexed vertex rows and one edge slab behind
// one read-write lock (see internal/graph) and ingestion is concurrent end to
// end: IngestAll fans the per-article extraction stage out across a worker
// pool and batches each document's KG writes, the miner counts those writes
// on its own goroutine beside them, and queries stay safe to run against the
// live graph.
//
// Quickstart:
//
//	world := nous.GenerateWorld(nous.DefaultWorldConfig())
//	kg, _ := world.LoadKG()
//	p := nous.NewPipeline(kg, nous.DefaultConfig())
//	p.IngestAll(nous.GenerateArticles(world, nous.DefaultArticleConfig(500)))
//	ans, _ := p.Ask("Tell me about DJI")
//	fmt.Println(ans.Text)
package nous

import (
	"context"
	"sync/atomic"
	"time"

	"nous/internal/analytics"
	"nous/internal/core"
	"nous/internal/corpus"
	"nous/internal/disambig"
	"nous/internal/fgm"
	"nous/internal/linkpred"
	"nous/internal/ontology"
	"nous/internal/pathsearch"
	"nous/internal/persist"
	"nous/internal/plan"
	"nous/internal/qa"
	"nous/internal/repl"
	"nous/internal/stream"
	"nous/internal/temporal"
	"nous/internal/trends"
	"nous/internal/trust"
)

// Re-exported core types: the public API surface for building and querying
// dynamic knowledge graphs.
type (
	// Triple is one (subject, predicate, object) fact with provenance.
	Triple = core.Triple
	// Fact is a stored triple.
	Fact = core.Fact
	// Provenance records a fact's origin.
	Provenance = core.Provenance
	// KG is the dynamic knowledge graph.
	KG = core.KG
	// Ontology is the typed predicate vocabulary.
	Ontology = ontology.Ontology
	// EntityType names a node type.
	EntityType = ontology.EntityType
	// Pattern is a mined graph pattern.
	Pattern = fgm.Pattern
	// Trend is a burst-scored trending item.
	Trend = trends.Trend
	// Answer is a structured query answer: the query class, the rendered
	// text and the payload matching the class.
	Answer = plan.Result
	// Query is a parsed question.
	Query = qa.Query
	// Article is one input document.
	Article = corpus.Article
	// World is a generated evaluation domain.
	World = corpus.World
	// WorldConfig controls world generation.
	WorldConfig = corpus.Config
	// ArticleConfig controls article generation.
	ArticleConfig = corpus.ArticleConfig
	// StreamStats counts pipeline outcomes.
	StreamStats = stream.Stats
	// KGStats summarises knowledge-graph quality statistics.
	KGStats = core.Stats
	// QueryStats reports the epoch-versioned read layer's cache behaviour:
	// mutation epoch, artifact hits/misses/recomputes and topic-model lag.
	QueryStats = analytics.Stats
	// PersistStats reports a durable pipeline's on-disk state: snapshot
	// epoch, live WAL segment and checkpoint counters.
	PersistStats = persist.Stats
	// PersistOptions tunes a durable pipeline's store (group-commit
	// threshold, WAL size budget, snapshot retention).
	PersistOptions = persist.Options
	// Window is a half-open [Since, Until) unix-seconds time range scoping a
	// query to a slice of the stream. The zero Window is unbounded; curated
	// facts are always in scope regardless of the window.
	Window = temporal.Window
	// TemporalStats reports the time index's state (indexed edges and
	// timestamp span).
	TemporalStats = temporal.Stats
	// QueryPlan is a compiled logical query plan — the operator tree a
	// question lowers into before execution (GET /api/v1/plan renders it).
	QueryPlan = plan.Plan
	// PlanNode is the JSON-able shape of one plan operator.
	PlanNode = plan.NodeDesc
	// PlanStats reports the planner's execution counters (plans by class,
	// operators by kind) and the plan-result cache's counters.
	PlanStats = plan.Stats
	// PlanReport is one executed explain: the lowered plan with per-operator
	// actual rows, and whether the answer was served from the plan-result
	// cache.
	PlanReport = plan.Report
	// DiffAnswer is the payload of a temporal diff query: facts visible only
	// in the second window (added) or only in the first (removed).
	DiffAnswer = plan.DiffAnswer
	// ReplicationStatus is a follower's replication state: leader URL, the
	// leader's newest known epoch, the locally applied epoch, the lag
	// between them, and the stream's connection health.
	ReplicationStatus = repl.Status
)

// ErrParse marks questions Ask could not parse (or whose temporal qualifiers
// are invalid) — client errors, as opposed to execution failures. Match with
// errors.Is.
var ErrParse = qa.ErrParse

// NewKG returns an empty dynamic KG over the given ontology (nil for the
// default news/business ontology).
func NewKG(ont *Ontology) *KG { return core.NewKG(ont) }

// GenerateWorld builds a deterministic synthetic drone-domain world (the
// YAGO2 + WSJ stand-in).
func GenerateWorld(cfg WorldConfig) *World { return corpus.Generate(cfg) }

// DefaultWorldConfig is a medium world.
func DefaultWorldConfig() WorldConfig { return corpus.DefaultConfig() }

// GenerateArticles renders n dated articles from a world's event stream.
func GenerateArticles(w *World, cfg ArticleConfig) []Article {
	return corpus.GenerateArticles(w, cfg)
}

// DefaultArticleConfig generates n articles with default noise levels.
func DefaultArticleConfig(n int) ArticleConfig { return corpus.DefaultArticleConfig(n) }

// Config tunes the full pipeline. Each part's zero value keeps that
// part's documented meaning.
type Config struct {
	// Stream configures extraction → mapping → confidence → KG.
	Stream stream.Config
	// Miner configures the streaming frequent-graph miner.
	Miner fgm.Config
	// Trends configures burst detection.
	Trends trends.Config
}

// DefaultConfig is the setup the paper's figures are printed with
// (example_test.go; README's "Paper claims and figures").
func DefaultConfig() Config {
	return Config{
		Stream: stream.DefaultConfig(),
		Miner:  fgm.DefaultConfig(),
		Trends: trends.DefaultConfig(),
	}
}

// Pipeline is the end-to-end NOUS system: ingestion, mining, trends,
// topics, search and question answering over one dynamic KG.
type Pipeline struct {
	cfg       Config
	kg        *core.KG
	stream    *stream.Pipeline
	miner     *fgm.Miner
	trends    *trends.Table
	analytics *analytics.Cache
	searcher  *pathsearch.Searcher
	exec      *plan.Executor
	tindex    *temporal.Index
	store     *persist.Store // nil for an in-memory pipeline
	leader    *repl.Leader   // non-nil iff durable: serves WAL + snapshots to replicas
	follower  *repl.Follower // non-nil iff assembled by Follow: read replica

	// clock is the pipeline clock in unix seconds: the newest provenance
	// time in the fact log (0 = no dated fact yet, fall back to the wall
	// clock). Atomic because the KG listener advances it while query
	// handlers read it.
	clock atomic.Int64
}

// NewPipeline assembles the system over a KG pre-loaded with curated
// knowledge. The miner is seeded with the facts already in the KG (those of
// the newest Miner.WindowSize fact IDs), so mined patterns span both
// curated and extracted structure, and the trend table counts every dated
// extracted fact in the KG, so a reopened or replicated pipeline trends and
// mines like the one that wrote its facts. Nothing may write the KG while
// the pipeline assembles.
func NewPipeline(kg *KG, cfg Config) *Pipeline {
	p := &Pipeline{cfg: cfg, kg: kg}
	p.miner = fgm.NewMiner(cfg.Miner)

	// The epoch-versioned read layer: one cache memoizes PageRank
	// importance, the disambiguation prior and topic vectors for every
	// consumer — the plan executor, the linker and the path searcher.
	p.analytics = analytics.New(kg)

	// The trend table moves with every addition and eviction; it is read
	// under the KG's lock, so it never lags the graph epoch a cached answer
	// is keyed by.
	p.trends = trends.Track(kg, cfg.Trends)
	p.stream = stream.NewWith(kg, cfg.Stream, p.analytics)

	// Every fold over the fact log is seeded from one pass over the graph in
	// fact-ID order, which decodes each fact once into a reused value and
	// builds no fact list: the trend table, source trust and the gate
	// model's curated training set (stream.Pipeline.Seed), and the miner. A
	// miner edge's seq is its fact ID, and the count window holds the newest
	// Miner.WindowSize IDs up to the graph's edge allocator, which snapshots
	// persist and followers replicate; so only the facts with IDs from
	// NextEdge - WindowSize on are handed to the miner, and the seeded
	// window holds exactly the facts a live miner would still hold, curated
	// ones included. Seeding the miner costs O(window), not O(facts). The
	// window loses a fact when the KG evicts it (the FactEvicted branch
	// below) or when the allocator moves Miner.WindowSize past its ID.
	//
	// The listener below runs under the KG's write lock and does not count:
	// it posts each change to the miner's feed, which the miner drains on
	// its own goroutine, in post order, beside extraction and integration.
	// Every miner read waits for the posts made before it, so a pattern
	// query sees every fact the KG held when it was asked; Ingest,
	// IngestAll and Close return only once what they posted is counted.
	next := kg.Graph().NextEdge()
	from := core.FactID(0)
	if ws := cfg.Miner.WindowSize; ws > 0 {
		from = next - core.FactID(ws)
	}
	var seed []fgm.Edge
	kg.ScanFacts(func(f *Fact) {
		p.trends.Seed(f)
		p.stream.Seed(f)
		if f.ID >= from {
			seed = append(seed, minerEdge(f))
		}
	})
	p.miner.AddBatch(seed)
	p.miner.Advance(int64(next))
	kg.Subscribe(func(ev core.Event) {
		switch ev.Kind {
		case core.FactAdded:
			p.miner.Post(minerEdge(&ev.Fact))
			if t := ev.Fact.Provenance.Time; !t.IsZero() {
				p.advance(t)
			}
		case core.FactEvicted:
			p.miner.PostRemove(int64(ev.Fact.ID))
		}
	})

	// The temporal index is owned by the KG (attached at construction,
	// re-scanned by Rebuild after recovery) and shared here. It powers the
	// windowed read paths — "tell me about X last week", windowed exports,
	// windowed PageRank — plus index-driven eviction, the straddled end
	// bucket of windowed trending and whole-stream diffs.
	p.tindex = kg.TemporalIndex()

	// Relative time ("last week") resolves against stream time, not the wall
	// clock. The clock starts at the newest dated fact already in the log and
	// the listener above moves it with every dated fact that arrives, so a
	// fresh, a reopened and a replicated pipeline agree at equal fact logs.
	if _, newest, ok := p.tindex.Span(); ok {
		p.advance(time.Unix(newest, 0))
	}

	p.searcher = pathsearch.New(kg.Graph(), p.analytics.Topics())
	p.exec = plan.NewExecutor(plan.Deps{
		KG:        kg,
		Trends:    p.trends,
		Miner:     p.miner,
		Searcher:  p.searcher,
		Model:     p.stream.Model(),
		Linker:    p.stream.Linker(),
		Analytics: p.analytics,
		TIndex:    p.tindex,
		Now:       p.now,
	})
	return p
}

// Open assembles a durable pipeline over a data directory with the default
// persistence options: it recovers the knowledge graph from the newest
// snapshot plus the write-ahead-log tail, rebuilds the entity/fact indexes,
// and logs every subsequent mutation. A fresh or empty directory yields an
// empty KG — check KG().NumFacts() and seed the curated substrate if needed.
// Close the pipeline when done.
func Open(dir string, ont *Ontology, cfg Config) (*Pipeline, error) {
	return OpenWithOptions(dir, ont, cfg, persist.DefaultOptions())
}

// OpenWithOptions is Open with explicit persistence tuning.
func OpenWithOptions(dir string, ont *Ontology, cfg Config, opt PersistOptions) (*Pipeline, error) {
	kg := core.NewKG(ont)
	st, err := persist.Open(dir, kg.Graph(), opt)
	if err != nil {
		return nil, err
	}
	if err := kg.Rebuild(); err != nil {
		st.Close()
		return nil, err
	}
	p := NewPipeline(kg, cfg)
	p.store = st
	p.leader = repl.NewLeader(kg.Graph(), st)
	return p, nil
}

// Follow assembles a read replica over a leader's replication endpoints: it
// bootstraps the KG from the leader's newest snapshot, rebuilds the index
// layer, then tails the leader's WAL so every derived structure — temporal
// index, miner, trend table, analytics epoch cache — stays live. The
// replica serves every read path; writes must go to the leader (the server
// rejects them with read_only_replica). The replica keeps no local disk
// state: a restart re-bootstraps. Close stops the tailing loop.
func Follow(ctx context.Context, leaderURL string, ont *Ontology, cfg Config) (*Pipeline, error) {
	kg := core.NewKG(ont)
	f := repl.NewFollower(leaderURL, kg)
	if err := f.Bootstrap(ctx); err != nil {
		return nil, err
	}
	p := NewPipeline(kg, cfg)
	p.follower = f
	f.Start()
	return p, nil
}

// WALSource exposes the replication leader serving this pipeline's WAL and
// snapshots to followers; nil for in-memory (non-durable) pipelines.
func (p *Pipeline) WALSource() *repl.Leader { return p.leader }

// Follower exposes the replication follower keeping this pipeline
// converged with a leader; nil unless assembled by Follow.
func (p *Pipeline) Follower() *repl.Follower { return p.follower }

// ReadOnly reports whether this pipeline is a read replica: its state is
// owned by a leader and local writes are rejected at the API surface.
func (p *Pipeline) ReadOnly() bool { return p.follower != nil }

// Durable reports whether the pipeline persists its graph to disk.
func (p *Pipeline) Durable() bool { return p.store != nil }

// Checkpoint rolls the durable state forward: it snapshots the current
// graph and truncates the write-ahead log back to the new cut. Safe to call
// while ingestion and queries run; a no-op on an in-memory pipeline.
func (p *Pipeline) Checkpoint() error {
	if p.store == nil {
		return nil
	}
	return p.store.Checkpoint()
}

// Close flushes and detaches the durable store (a no-op on an in-memory
// pipeline), stops a replica's tailing loop and waits until the miner has
// counted every fact the KG posted to it. Stop ingesting before calling
// Close; queries may continue against the in-memory graph afterwards, but
// nothing further is logged or replicated.
func (p *Pipeline) Close() error {
	if p.follower != nil {
		p.follower.Close()
	}
	p.miner.Wait()
	if p.store == nil {
		return nil
	}
	return p.store.Close()
}

// PersistStats reports the durable store's state (snapshot epoch, live WAL
// segment size, checkpoints). The second result is false for an in-memory
// pipeline.
func (p *Pipeline) PersistStats() (PersistStats, bool) {
	if p.store == nil {
		return PersistStats{}, false
	}
	return p.store.Stats(), true
}

func minerEdge(f *Fact) fgm.Edge {
	return fgm.Edge{
		Src: int64(f.Src), Dst: int64(f.Dst),
		SrcLabel: string(f.SubjectType), DstLabel: string(f.ObjectType),
		Label: f.Predicate, ID: int64(f.ID),
	}
}

func (p *Pipeline) now() time.Time {
	if s := p.clock.Load(); s != 0 {
		return time.Unix(s, 0)
	}
	return time.Now()
}

// Ingest processes one article through extraction, mapping, confidence
// estimation and KG update, and returns once the miner has counted the
// facts it added and evicted.
func (p *Pipeline) Ingest(a Article) {
	p.stream.Process(a)
	p.miner.Wait()
}

// IngestAll processes a batch through the concurrent ingestion path:
// extraction fans out across a bounded worker pool (Config.Stream.Workers,
// default GOMAXPROCS) while integration consumes completed extractions in
// document order, writing each document's accepted facts to the graph
// store as one batch. Results are identical to ingesting the articles
// one at a time. The miner counts the facts beside integration; IngestAll
// returns once it has counted them. It returns the cumulative stream
// statistics.
func (p *Pipeline) IngestAll(articles []Article) StreamStats {
	st := p.stream.Run(articles)
	p.miner.Wait()
	return st
}

// advance moves the pipeline clock forward to t (never back). Safe to call
// while queries read the clock.
func (p *Pipeline) advance(t time.Time) {
	ts := t.Unix()
	for {
		cur := p.clock.Load()
		if ts <= cur || p.clock.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// BuildTopics does nothing and is kept only for the benchmark's call, which
// predates this. Topic vectors are a function of the fact log: the analytics
// cache fits the topic model on the first relationship read and folds each
// entity in as it is read (internal/analytics/topics.go).
func (p *Pipeline) BuildTopics() {}

// Analytics exposes the epoch-versioned artifact cache shared by the query
// engine (for benchmarks and diagnostics).
func (p *Pipeline) Analytics() *analytics.Cache { return p.analytics }

// TemporalIndex exposes the time-ordered edge index (for
// benchmarks and diagnostics).
func (p *Pipeline) TemporalIndex() *temporal.Index { return p.tindex }

// TemporalStats reports the time index's state: indexed edge count and the
// timestamp span it covers.
func (p *Pipeline) TemporalStats() TemporalStats { return p.tindex.Stats() }

// RecentFacts returns the newest k facts whose timestamps fall inside the
// window, oldest first — the "what just happened" feed over the dynamic
// stream. It is answered from the time index (one tail read),
// not by scanning the fact set.
func (p *Pipeline) RecentFacts(w Window, k int) []Fact {
	ids := p.tindex.LatestIn(w, k)
	out := make([]Fact, 0, len(ids))
	for _, id := range ids {
		if f, ok := p.kg.Fact(id); ok {
			out = append(out, f)
		}
	}
	return out
}

// QueryStats reports the read layer's cache behaviour: current mutation
// epoch and artifact hits/misses/recomputes.
func (p *Pipeline) QueryStats() QueryStats { return p.analytics.Stats() }

// Ask parses and answers a natural-language-like question (the five query
// classes of the paper's Fig 5). Temporal qualifiers in the question ("last
// week", "in 2015", "between 2014 and 2016", "as of 2015-06-30") scope the
// answer to that slice of the stream; relative forms resolve against the
// pipeline clock.
func (p *Pipeline) Ask(question string) (Answer, error) {
	return p.AskWindow(question, Window{})
}

// AskWindow is Ask with an explicit window (the API's since/until
// parameters), intersected with any window the question itself carries. The
// unbounded window makes it exactly Ask.
func (p *Pipeline) AskWindow(question string, w Window) (Answer, error) {
	pl, err := qa.CompileAt(question, p.now(), w)
	if err != nil {
		return Answer{}, err
	}
	return p.exec.Run(pl)
}

// Run executes a pre-parsed query.
func (p *Pipeline) Run(q Query) (Answer, error) {
	pl, err := qa.Lower(q)
	if err != nil {
		return Answer{}, err
	}
	return p.exec.Run(pl)
}

// Trending returns the top-k bursting entities and predicates at the
// pipeline clock.
func (p *Pipeline) Trending(k int) []Trend {
	return p.trends.Trending(p.now(), k)
}

// TrendingWindow answers "what was trending in this window": a bounded
// window scores bursts in every bucket the window covers (history before
// the window feeds the baselines); the unbounded window gives the trends of
// Trending. Both are read off the pipeline's one trend table.
func (p *Pipeline) TrendingWindow(w Window, k int) (Answer, error) {
	return p.exec.Run(plan.TrendingPlan(w, k))
}

// Diff answers the temporal join "what changed about entity between A and
// B": facts visible in window B but not A (added) and vice versa (removed),
// matched by (subject, predicate, object). An empty entity diffs the whole
// extracted stream off the temporal index. Curated facts are visible in
// every window and therefore never appear as changes.
func (p *Pipeline) Diff(entity string, a, b Window) (Answer, error) {
	return p.exec.Run(plan.DiffPlan(entity, a, b))
}

// PlanFor parses a question and compiles it into its logical plan without
// executing it — the explain view of the query planner. The window
// intersects like AskWindow's.
func (p *Pipeline) PlanFor(question string, w Window) (*QueryPlan, error) {
	return qa.CompileAt(question, p.now(), w)
}

// ExplainPlan compiles and executes a question, reporting its plan with
// per-operator actual rows — the engine behind GET /api/v1/plan. Cacheable
// questions go through the plan-result cache; an explain of an
// already-cached question reports Cached and skips execution entirely (so
// it carries no actual rows).
func (p *Pipeline) ExplainPlan(question string, w Window) (*PlanReport, error) {
	pl, err := qa.CompileAt(question, p.now(), w)
	if err != nil {
		return nil, err
	}
	return p.exec.Explain(pl)
}

// PlanStats reports the query planner's execution counters.
func (p *Pipeline) PlanStats() PlanStats {
	return p.exec.Stats()
}

// Patterns returns the top-k closed frequent patterns in the current
// window.
func (p *Pipeline) Patterns(k int) []Pattern {
	return p.miner.ClosedPatterns(k)
}

// PatternTransitions reports patterns entering and leaving the frequent
// set since the last call.
func (p *Pipeline) PatternTransitions() (entered, left []Pattern) {
	return p.miner.Transitions()
}

// Explain returns up to k coherence-ranked paths between two entities,
// optionally constrained to traverse a predicate.
func (p *Pipeline) Explain(src, dst, predicate string, k int) (Answer, error) {
	return p.ExplainWindow(src, dst, predicate, k, Window{})
}

// ExplainWindow is Explain restricted to paths whose extracted edges fall in
// the window (curated edges always qualify).
func (p *Pipeline) ExplainWindow(src, dst, predicate string, k int, w Window) (Answer, error) {
	return p.exec.Run(plan.RelationshipPlan(src, dst, predicate, k, w))
}

// About returns the entity summary answer for a name (Fig 6).
func (p *Pipeline) About(name string) (Answer, error) {
	return p.AboutWindow(name, Window{})
}

// AboutWindow is About scoped to the window: the summary's facts and
// importance reflect only the curated substrate plus the extracted facts
// inside [Since, Until).
func (p *Pipeline) AboutWindow(name string, w Window) (Answer, error) {
	return p.exec.Run(plan.EntityPlan(name, w, 10))
}

// Score returns the link-prediction confidence of a candidate triple.
func (p *Pipeline) Score(subject, predicate, object string) float64 {
	return p.stream.Model().Score(subject, predicate, object)
}

// KG exposes the underlying dynamic knowledge graph.
func (p *Pipeline) KG() *KG { return p.kg }

// Stats returns the stream statistics so far.
func (p *Pipeline) Stats() StreamStats { return p.stream.Stats() }

// Linker exposes the entity disambiguator (AIDA variant).
func (p *Pipeline) Linker() *disambig.Linker { return p.stream.Linker() }

// SourceTrust returns the current per-source trust scores (§3.4's source-
// level trust tracking), sorted by descending trust. Safe during ingestion.
func (p *Pipeline) SourceTrust() []trust.SourceTrust {
	return p.stream.SourceTrust()
}

// LinkPredictor exposes the BPR confidence model.
func (p *Pipeline) LinkPredictor() *linkpred.Model { return p.stream.Model() }

// QueryClasses lists the five supported query classes with examples.
func QueryClasses() []string { return qa.Classes() }
