// Package disambig implements the entity-disambiguation stage of §3.3: a
// variation of the AIDA algorithm (Hoffart et al., EMNLP'11). Candidate
// entities for each mention are scored by a popularity prior (PageRank over
// the KG), mention-context similarity and entity–entity coherence, then
// jointly resolved on a mention–entity graph by AIDA's greedy dense-subgraph
// heuristic: iteratively remove the entity with the smallest weighted degree
// while every mention keeps at least one candidate.
//
// The paper's adaptation — which this package reproduces — replaces AIDA's
// Wikipedia-article context with the entity's neighborhood in the knowledge
// graph: an entity's context document is built from the names, types and
// predicates around it.
package disambig

import (
	"math"
	"strings"
	"sync"

	"nous/internal/core"
	"nous/internal/nlp"
)

// Mention is a surface form to resolve together with the content words of
// the document around it.
type Mention struct {
	Surface string
	Context []string
}

// Result is the resolution of one mention.
type Result struct {
	Surface string
	Entity  string  // canonical entity name ("" when unresolvable)
	Score   float64 // final combined score of the chosen candidate
	// Ambiguous is set when the mention had more than one candidate.
	Ambiguous bool
}

// The score weights mirror AIDA's emphasis on context plus coherence: with
// no contextual evidence, coherence with co-mentioned entities must be able
// to override the popularity prior. With them the joint resolution beats
// prior-only linking by 8.3–15.0 points on seeds 1–10
// (TestClaimC5AIDABeatsPriorOnly).
const (
	priorWeight     = 0.15
	contextWeight   = 0.5
	coherenceWeight = 0.6
	// maxCandidates bounds the candidate set per mention: the joint graph
	// is quadratic in its candidates.
	maxCandidates = 8
)

// PriorSource supplies the popularity prior (per entity name, normalized to
// [0,1]). internal/analytics.Cache implements it with a memoized PageRank
// that follows the graph with a bounded lag (256 mutations), so N concurrent
// linking calls share one computation.
type PriorSource interface {
	PopularityPrior() map[string]float64
}

// Linker resolves mentions against a dynamic KG. All methods are safe for
// concurrent use (queries disambiguate while ingestion links new mentions).
type Linker struct {
	kg     *core.KG
	priors PriorSource

	// profiles caches entity context documents. It is keyed by the graph
	// mutation epoch at which it was filled: any KG write invalidates it,
	// since profiles are built from the entity's live neighborhood.
	mu            sync.Mutex
	profiles      map[string][]string
	profilesEpoch uint64
}

// NewLinker builds a linker whose popularity prior comes from the given
// source (the pipeline-wide analytics cache).
func NewLinker(kg *core.KG, priors PriorSource) *Linker {
	return &Linker{kg: kg, priors: priors, profiles: make(map[string][]string)}
}

// prior returns the current popularity prior map (shared, read-only).
func (l *Linker) prior() map[string]float64 {
	return l.priors.PopularityPrior()
}

// profile returns (building lazily) the KG-neighborhood context document of
// an entity: its own name tokens, the names and types of its neighbors and
// the predicates on its edges. Cached profiles are dropped whenever the
// graph's mutation epoch moves, since any write may have changed a
// neighborhood.
func (l *Linker) profile(name string) []string {
	now := l.kg.Graph().Epoch()
	l.mu.Lock()
	if l.profilesEpoch != now {
		l.profiles = make(map[string][]string)
		l.profilesEpoch = now
	}
	if p, ok := l.profiles[name]; ok {
		l.mu.Unlock()
		return p
	}
	l.mu.Unlock()
	var words []string
	addText := func(s string) {
		for _, w := range strings.Fields(strings.ToLower(s)) {
			w = strings.Trim(w, ".,")
			if w != "" && !nlp.IsStopword(w) {
				words = append(words, w)
			}
		}
	}
	addText(name)
	if typ, ok := l.kg.EntityType(name); ok {
		addText(string(typ))
	}
	for _, f := range l.kg.FactsAbout(name) {
		addText(f.Predicate)
		if f.Subject == name {
			addText(f.Object)
			addText(string(f.ObjectType))
		} else {
			addText(f.Subject)
			addText(string(f.SubjectType))
		}
		if f.Provenance.Sentence != "" {
			addText(f.Provenance.Sentence)
		}
	}
	l.mu.Lock()
	// Don't cache a profile built across a write: the neighborhood walk
	// must have seen a quiescent graph (live epoch unchanged) and the map
	// must still belong to that epoch.
	if l.profilesEpoch == now && l.kg.Graph().Epoch() == now {
		l.profiles[name] = words
	}
	l.mu.Unlock()
	return words
}

// contextSimilarity is the cosine between the mention's context bag and the
// entity's KG-neighborhood profile.
func (l *Linker) contextSimilarity(context []string, entity string) float64 {
	return cosine(bag(context), bag(l.profile(entity)))
}

// coherence is the Jaccard overlap of the two entities' closed 1-hop KG
// neighborhoods (Milne–Witten relatedness restricted to the KG). Closed
// neighborhoods — each entity is a member of its own set — make directly
// linked entities coherent even when they share no third neighbor.
func (l *Linker) coherence(a, b string) float64 {
	na := append(l.kg.Neighborhood(a, 1), a)
	nb := append(l.kg.Neighborhood(b, 1), b)
	setA := make(map[string]bool, len(na))
	for _, x := range na {
		setA[x] = true
	}
	inter := 0
	for _, x := range nb {
		if setA[x] {
			inter++
		}
	}
	union := len(setA) + len(nb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// candidate is one mention-entity hypothesis in the joint graph.
type candidate struct {
	mention int
	entity  string
	meScore float64 // prior + context part
	alive   bool
}

// Link jointly resolves a document's mentions. Mentions with no KB candidate
// resolve to Entity == "".
func (l *Linker) Link(mentions []Mention) []Result {
	results := make([]Result, len(mentions))
	var cands []candidate
	perMention := make([][]int, len(mentions))

	prior := l.prior() // one snapshot for the whole document
	for i, m := range mentions {
		results[i] = Result{Surface: m.Surface}
		names := l.kg.Candidates(m.Surface)
		if len(names) > maxCandidates {
			names = names[:maxCandidates]
		}
		results[i].Ambiguous = len(names) > 1
		for _, name := range names {
			me := priorWeight*prior[name] +
				contextWeight*l.contextSimilarity(m.Context, name)
			cands = append(cands, candidate{mention: i, entity: name, meScore: me, alive: true})
			perMention[i] = append(perMention[i], len(cands)-1)
		}
	}
	if len(cands) == 0 {
		return results
	}

	// Entity–entity coherence edges between candidates of different
	// mentions (same-entity candidates reinforce each other maximally).
	coh := make([][]float64, len(cands))
	for i := range coh {
		coh[i] = make([]float64, len(cands))
	}
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if cands[i].mention == cands[j].mention {
				continue
			}
			var c float64
			if cands[i].entity == cands[j].entity {
				c = 1
			} else {
				c = l.coherence(cands[i].entity, cands[j].entity)
			}
			coh[i][j] = c
			coh[j][i] = c
		}
	}

	// weightedDegree scores a candidate by its mention-entity score plus,
	// for every *other* mention, the best coherence with that mention's
	// alive candidates (averaged over other mentions so documents with many
	// mentions don't drown the prior and context terms).
	weightedDegree := func(i int) float64 {
		d := cands[i].meScore
		if len(mentions) <= 1 {
			return d
		}
		bestPerMention := make(map[int]float64)
		for j := range cands {
			if j == i || !cands[j].alive || cands[j].mention == cands[i].mention {
				continue
			}
			if c := coh[i][j]; c > bestPerMention[cands[j].mention] {
				bestPerMention[cands[j].mention] = c
			}
		}
		sum := 0.0
		for _, c := range bestPerMention {
			sum += c
		}
		return d + coherenceWeight*sum/float64(len(mentions)-1)
	}
	aliveCount := make([]int, len(mentions))
	for i := range perMention {
		aliveCount[i] = len(perMention[i])
	}

	// AIDA greedy dense subgraph: repeatedly drop the weakest removable
	// candidate (its mention must retain another candidate).
	for {
		worst, worstDeg := -1, math.Inf(1)
		for i, c := range cands {
			if !c.alive || aliveCount[c.mention] <= 1 {
				continue
			}
			if d := weightedDegree(i); d < worstDeg {
				worst, worstDeg = i, d
			}
		}
		if worst < 0 {
			break
		}
		cands[worst].alive = false
		aliveCount[cands[worst].mention]--
	}

	// Pick the surviving candidate per mention (highest final degree wins
	// if several survive because removal was blocked).
	for mi, idxs := range perMention {
		best, bestScore := -1, math.Inf(-1)
		for _, ci := range idxs {
			if !cands[ci].alive {
				continue
			}
			if d := weightedDegree(ci); d > bestScore {
				best, bestScore = ci, d
			}
		}
		if best >= 0 {
			results[mi].Entity = cands[best].entity
			results[mi].Score = bestScore
		}
	}
	return results
}

// LinkOne resolves a single mention (no joint coherence, prior + context
// only). It is the popularity/context baseline used in the evaluation.
func (l *Linker) LinkOne(m Mention) Result {
	rs := l.Link([]Mention{m})
	return rs[0]
}

func bag(words []string) map[string]float64 {
	m := make(map[string]float64, len(words))
	for _, w := range words {
		m[strings.ToLower(w)]++
	}
	return m
}

func cosine(a, b map[string]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var dot, na, nb float64
	for w, x := range a {
		na += x * x
		if y, ok := b[w]; ok {
			dot += x * y
		}
	}
	for _, y := range b {
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
