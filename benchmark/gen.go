package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"time"

	"nous"
	"nous/internal/ontology"
	"nous/internal/qa"
)

// Everything the program under test receives is generated here from -seed:
// the world, the article stream, the synthetic timestamped facts and the
// request sequence. The same seed gives byte-identical inputs (pinned by
// gen_test.go); the pipeline itself keeps its own fixed Config.Seed.

// sizes fixes how much work each workload does. fullSizes is what
// BENCHMARK.json measures; toySizes drives the `go test` smoke.
type sizes struct {
	// WorldScale multiplies corpus.DefaultConfig's Companies, People,
	// Products and Events.
	WorldScale int
	// PreIngest is the number of articles integrated during set-up of the
	// query workloads; RestartPreIngest that of the restart workload, kept
	// smaller because every recovery re-mines all of their facts. (Not 800:
	// there the miner's retained state is 14 or 17 MiB depending on the
	// seed, and live_heap_mb splits in two.)
	PreIngest, RestartPreIngest int
	// IngestDocsPerSec sizes the ingest workload's article stream:
	// this many articles per second of -seconds.
	IngestDocsPerSec int
	// ChunkDocs is the IngestAll batch size of the ingest workload.
	ChunkDocs int
	// DetDocs is the prefix the ingest determinism oracle re-ingests with
	// one worker.
	DetDocs int
	// SynSnapshot / SynTail are the synthetic facts written before and after
	// the restart workload's checkpoint (snapshot body vs WAL tail).
	SynSnapshot, SynTail int
	// MinRestarts is the least number of recover cycles, whatever -seconds.
	MinRestarts int
	// WarmRequests is the untimed warm-up of the query workloads, per client.
	WarmRequests int
	// WriterPerSec is query_live's open-loop ingest schedule.
	WriterPerSec int
	// DurabilityFacts is the size of each batch of the durability probe.
	DurabilityFacts int
	// SetupRepeats is how many times set-up runs; setup_s is their median.
	SetupRepeats int
}

var fullSizes = sizes{
	WorldScale:       5,
	PreIngest:        1000,
	RestartPreIngest: 200,
	IngestDocsPerSec: 600,
	ChunkDocs:        100,
	DetDocs:          500,
	SynSnapshot:      5000,
	SynTail:          500,
	MinRestarts:      6,
	WarmRequests:     1500,
	WriterPerSec:     50,
	DurabilityFacts:  256,
	SetupRepeats:     3,
}

var toySizes = sizes{
	WorldScale:       1,
	PreIngest:        40,
	RestartPreIngest: 20,
	IngestDocsPerSec: 400,
	ChunkDocs:        20,
	DetDocs:          40,
	SynSnapshot:      200,
	SynTail:          40,
	MinRestarts:      2,
	WarmRequests:     50,
	WriterPerSec:     20,
	DurabilityFacts:  16,
	SetupRepeats:     1,
}

// Seed offsets keep the four generated inputs independent of one another.
const (
	seedArticles = 1_000_003
	seedRequests = 2_000_003
)

func genWorld(seed int64, sz sizes) *nous.World {
	c := nous.DefaultWorldConfig()
	c.Seed = seed
	c.Companies *= sz.WorldScale
	c.People *= sz.WorldScale
	c.Products *= sz.WorldScale
	c.Events *= sz.WorldScale
	return nous.GenerateWorld(c)
}

func genArticles(w *nous.World, seed int64, n int) []nous.Article {
	c := nous.DefaultArticleConfig(n)
	c.Seed = seed + seedArticles
	return nous.GenerateArticles(w, c)
}

// synthFacts returns facts [start, start+n) of the synthetic stream: chains
// of four companies, so every synthetic entity sits in at most two facts and
// the streaming miner's pattern joins stay linear in n (a shared hub would
// make them quadratic and the restart workload would time the miner's worst
// case instead of recovery — see the note in cmd/nousbench/repl.go).
// Timestamps increase by one second per fact from 2016-01-01.
func synthFacts(seed int64, start, n int) []nous.Triple {
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	name := func(i int) string { return fmt.Sprintf("SynCo %d-%06d", seed, i) }
	out := make([]nous.Triple, 0, n)
	for i := start; i < start+n; i++ {
		// Fact i links vertex i to i+1, except that every fourth link is
		// cut so chains have three facts over four vertices.
		src := i + i/3
		out = append(out, nous.Triple{
			Subject:     name(src),
			Predicate:   "acquired",
			Object:      name(src + 1),
			SubjectType: ontology.TypeCompany,
			ObjectType:  ontology.TypeCompany,
			Confidence:  0.9,
			Provenance:  nous.Provenance{Source: "bench", Time: base.Add(time.Duration(i) * time.Second)},
		})
	}
	return out
}

// A window of the request generator's pool, in the three spellings the API
// accepts: since/until parameters (until exclusive), and the inclusive ISO
// days the question language reads after "between".
type poolWindow struct {
	Since, Until time.Time // [Since, Until)
}

func (w poolWindow) window() nous.Window {
	return nous.Window{Since: w.Since.Unix(), Until: w.Until.Unix()}
}

func (w poolWindow) sinceParam() string { return w.Since.Format("2006-01-02") }
func (w poolWindow) untilParam() string { return w.Until.Format("2006-01-02") }

// phrase is the qualifier appended to a question: "between D1 and D2" with
// D2 the last day inside the window.
func (w poolWindow) phrase() string {
	return "between " + w.Since.Format("2006-01-02") + " and " + w.Until.AddDate(0, 0, -1).Format("2006-01-02")
}

// zipfS is the exponent of the entity draw. README.md states it and the
// window pool's size; gen_test.go pins both.
const zipfS = 1.1

// windowPool is the 64 windows over the world's 2010–2015 date range that
// diff, windowed trending, windowed entity and windowed recent requests draw
// from: 6 years, 12 half-years, 24 quarters, 15 multi-year spans and the
// first 7 months of 2013. Diff keys are entity × window × window, far more
// than the 256-entry plan-result cache; the windowed-PageRank LRU holds 8.
func windowPool() []poolWindow {
	day := func(y, m int) time.Time { return time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC) }
	var out []poolWindow
	for y := 2010; y <= 2015; y++ {
		out = append(out, poolWindow{day(y, 1), day(y+1, 1)})
		for h := 0; h < 2; h++ {
			out = append(out, poolWindow{day(y, 1+6*h), day(y, 7+6*h)})
		}
		for q := 0; q < 4; q++ {
			out = append(out, poolWindow{day(y, 1+3*q), day(y, 4+3*q)})
		}
		for y2 := y + 1; y2 <= 2015; y2++ {
			out = append(out, poolWindow{day(y, 1), day(y2+1, 1)})
		}
	}
	for m := 1; m <= 7; m++ {
		out = append(out, poolWindow{day(2013, m), day(2013, m+1)})
	}
	return out
}

// Query classes of the mix, with their share of requests in percent.
const (
	classEntity = iota
	classFact
	classRelationship
	classDiff
	classTrending
	classRecent
	classPatterns
	numClasses
)

var classNames = [numClasses]string{"entity", "fact", "relationship", "diff", "trending", "recent", "patterns"}

// mixPercent is the request mix by count. README.md states it; gen_test.go
// checks the generator honours it.
var mixPercent = [numClasses]int{40, 20, 10, 10, 10, 8, 2}

// request is one generated query. Path is what goes over HTTP; the other
// fields let the traced run replay the same query in-process and through the
// layer entry points.
type request struct {
	Class    int
	Path     string // "/api/v1/...?..." — also the repeat key of the static oracle
	Question string // non-empty iff the request goes through /api/v1/ask
	Entity   string // subject (entity, fact, relationship, diff)
	Object   string // relationship target, or the object a fact question names
	WinA     nous.Window
	WinB     nous.Window // diff only
	K        int
	// Expect, when non-empty, must appear in the response data: the object
	// of the curated fact a checked fact probe asks for.
	Expect string
}

// factProbe is a curated fact a question can ask for, with the question.
type factProbe struct {
	Subject, Question, Expect string
}

// probeVerbs are the curated predicates the question language can ask the
// object of ("What does DJI manufacture?").
var probeVerbs = map[string]string{"manufactures": "manufacture", "develops": "develop"}

// requestGen draws the request sequence of one client. Entities are zipfian
// over the KG's entities ranked by degree; windows are uniform over the pool.
type requestGen struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	entities []string
	probes   []factProbe
	pool     []poolWindow
}

func newRequestGen(seed int64, client int, entities []string, probes []factProbe) *requestGen {
	rng := rand.New(rand.NewSource(seed + seedRequests + int64(client)*7919))
	return &requestGen{
		rng:      rng,
		zipf:     rand.NewZipf(rng, zipfS, 1, uint64(len(entities)-1)),
		entities: entities,
		probes:   probes,
		pool:     windowPool(),
	}
}

func (g *requestGen) entity() string     { return g.entities[g.zipf.Uint64()] }
func (g *requestGen) window() poolWindow { return g.pool[g.rng.Intn(len(g.pool))] }
func (g *requestGen) coin() bool         { return g.rng.Intn(2) == 0 }

func ask(q string) string { return "/api/v1/ask?q=" + url.QueryEscape(q) }

func (g *requestGen) next() request {
	roll := g.rng.Intn(100)
	class := 0
	for acc := mixPercent[0]; roll >= acc; acc += mixPercent[class] {
		class++
	}
	r := request{Class: class}
	switch class {
	case classEntity:
		// Half natural-language, half endpoint; a quarter of each windowed,
		// and a tenth of the questions relative ("last year").
		r.Entity, r.K = g.entity(), 10
		windowed := g.rng.Intn(4) == 0
		var w poolWindow
		if windowed {
			w = g.window()
			r.WinA = w.window()
		}
		if g.coin() {
			r.Question = "Tell me about " + r.Entity
			if windowed {
				r.Question += " " + w.phrase()
			} else if g.rng.Intn(10) == 0 {
				r.Question += " last year"
			}
			r.Path = ask(r.Question)
		} else {
			r.Path = "/api/v1/entity?entity=" + url.QueryEscape(r.Entity)
			if windowed {
				r.Path += "&since=" + w.sinceParam() + "&until=" + w.untilParam()
			}
		}
	case classFact:
		// Half checked probes of curated facts, half open questions about
		// the extracted stream, which may have no answer. (The yes/no form
		// "Did X acquire Y?" is left out: the question language reads only
		// one-word subjects in it.)
		switch {
		case g.coin() && len(g.probes) > 0:
			p := g.probes[int(g.zipf.Uint64())%len(g.probes)]
			r.Entity, r.Question, r.Expect = p.Subject, p.Question, p.Expect
		case g.coin():
			r.Entity = g.entity()
			r.Question = "What does " + r.Entity + " deploy?"
		default:
			r.Object = g.entity()
			r.Question = "Who acquired " + r.Object + "?"
		}
		r.Path = ask(r.Question)
	case classRelationship:
		r.Entity, r.Object, r.K = g.entity(), g.entity(), 3
		r.Question = "How is " + r.Entity + " related to " + r.Object + "?"
		r.Path = ask(r.Question)
	case classDiff:
		r.Entity = g.entity()
		if g.coin() {
			// The question form compares two whole years.
			y := 2010 + g.rng.Intn(5)
			y2 := y + 1 + g.rng.Intn(2015-y)
			r.Question = "What changed about " + r.Entity + " between " + strconv.Itoa(y) + " and " + strconv.Itoa(y2) + "?"
			r.Path = ask(r.Question)
			r.WinA, r.WinB = yearWindow(y), yearWindow(y2)
		} else {
			a, b := g.window(), g.window()
			r.WinA, r.WinB = a.window(), b.window()
			r.Path = "/api/v1/diff?entity=" + url.QueryEscape(r.Entity) +
				"&asince=" + a.sinceParam() + "&auntil=" + a.untilParam() +
				"&bsince=" + b.sinceParam() + "&buntil=" + b.untilParam()
		}
	case classTrending:
		r.K = 10
		switch g.rng.Intn(4) {
		case 0:
			r.Question = "What is trending?"
			r.Path = ask(r.Question)
		case 1:
			r.Path = "/api/v1/trending?k=10"
		case 2:
			w := g.window()
			r.WinA = w.window()
			r.Question = "What was trending " + w.phrase() + "?"
			r.Path = ask(r.Question)
		default:
			w := g.window()
			r.WinA = w.window()
			r.Path = "/api/v1/trending?k=10&since=" + w.sinceParam() + "&until=" + w.untilParam()
		}
	case classRecent:
		r.K = 20
		r.Path = "/api/v1/recent?k=20"
		if g.coin() {
			w := g.window()
			r.WinA = w.window()
			r.Path += "&since=" + w.sinceParam() + "&until=" + w.untilParam()
		}
	case classPatterns:
		r.K = 10
		r.Question = "What patterns are frequent?"
		r.Path = ask(r.Question)
	}
	return r
}

func yearWindow(y int) nous.Window {
	return nous.Window{
		Since: time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC).Unix(),
		Until: time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC).Unix(),
	}
}

// rankEntities orders the KG's entities by degree, highest first (name
// breaks ties), keeping only names the question language reads back
// unchanged — the workloads are chosen so that no request fails, and a name
// such as "Washington D.C." loses its final period in a question.
func rankEntities(kg *nous.KG) []string {
	type ranked struct {
		name   string
		degree int
	}
	now := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	var rs []ranked
	for _, name := range kg.Entities() {
		q, err := qa.ParseAt("Tell me about "+name, now)
		if err != nil || q.Class != qa.ClassEntity || q.Subject != name || q.Window.Bounded() {
			continue
		}
		id, ok := kg.Entity(name)
		if !ok {
			continue
		}
		rs = append(rs, ranked{name, kg.Graph().Degree(id)})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].degree != rs[j].degree {
			return rs[i].degree > rs[j].degree
		}
		return rs[i].name < rs[j].name
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.name
	}
	return out
}

// factProbes lists the checked fact questions: one per curated
// manufactures/develops/headquarteredIn fact whose subject survived
// rankEntities, in the ranking's order so the zipf head asks about hubs.
func factProbes(w *nous.World, entities []string) []factProbe {
	rank := make(map[string]int, len(entities))
	for i, e := range entities {
		rank[e] = i
	}
	var out []factProbe
	for _, t := range w.Curated {
		if _, ok := rank[t.Subject]; !ok {
			continue
		}
		switch verb, ok := probeVerbs[t.Predicate]; {
		case ok:
			out = append(out, factProbe{t.Subject, "What does " + t.Subject + " " + verb + "?", t.Object})
		case t.Predicate == "headquarteredIn":
			out = append(out, factProbe{t.Subject, "Where is " + t.Subject + " headquartered?", t.Object})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return rank[out[i].Subject] < rank[out[j].Subject] })
	return out
}
