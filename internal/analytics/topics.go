package analytics

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"nous/internal/core"
	"nous/internal/graph"
	"nous/internal/nlp"
	"nous/internal/topics"
)

// The topic model behind path-search coherence: LDA with 8 topics fitted by
// 100 Gibbs sweeps from seed 1 over the curated entities' profile documents,
// and a 20-sweep fold-in per entity.
const (
	topicCount   = 8
	fitSweeps    = 100
	foldInSweeps = 20
)

// topicSlot is one vertex's memoized topic vector. ver counts the
// invalidations of the vertex (a fact added to or removed from it); gen is
// the model generation vec was folded with.
type topicSlot struct {
	ver uint64
	gen uint64
	vec []float64 // nil when invalidated or never folded
}

// topicVectors is the per-vertex topic memo. The model is fitted over the
// curated facts and refitted only when one is added or removed (gen counts
// those changes); every vertex's vector is a fold-in of its whole profile
// document against that model. So a vector is a function of the fact log at
// its epoch, whichever process holds the log and whenever it first asks.
type topicVectors struct {
	gen   atomic.Uint64
	model *ResultMemo[one, *topics.Model] // keyed by gen

	mu    sync.Mutex
	slots map[graph.VertexID]*topicSlot
}

// invalidate is the KG listener's half: it runs under the KG write lock and
// costs O(1) per fact — a generation bump for a curated fact and a version
// bump for each endpoint that has a slot. No fold-in runs here.
func (t *topicVectors) invalidate(ev core.Event) {
	if ev.Fact.Curated {
		t.gen.Add(1)
	}
	t.mu.Lock()
	for _, id := range [2]graph.VertexID{ev.Fact.Src, ev.Fact.Dst} {
		if s := t.slots[id]; s != nil {
			s.ver++
			s.vec = nil
		}
	}
	t.mu.Unlock()
}

// Topics returns the per-vertex topic-vector source the path searcher reads:
// the vertex's LDA topic distribution at the current epoch, or nil for a
// vertex with no entity name. Safe for concurrent use.
func (c *Cache) Topics() func(graph.VertexID) []float64 { return c.topicVector }

// topicVector serves one vertex's vector from the memo, folding it in on a
// miss. A fold-in is stored only if no invalidation of the vertex landed
// since it started, so the memo never holds a vector older than the graph;
// one that raced a write goes to its caller alone.
func (c *Cache) topicVector(id graph.VertexID) []float64 {
	t := &c.topics
	gen := t.gen.Load()
	t.mu.Lock()
	s := t.slots[id]
	if s == nil {
		s = &topicSlot{}
		t.slots[id] = s
	}
	if s.vec != nil && s.gen == gen {
		vec := s.vec
		t.mu.Unlock()
		return vec
	}
	ver := s.ver
	t.mu.Unlock()

	name, ok := c.kg.EntityName(id)
	if !ok {
		return nil
	}
	m := c.topicModel(gen)
	vec := m.InferDoc(entityDoc(c.kg, name, false), foldInSweeps, nameSeed(name))

	// A model newer than gen leaves the slot stale for gen's successor,
	// never fresh with the wrong model.
	t.mu.Lock()
	if s.ver == ver {
		s.vec, s.gen = vec, gen
	}
	t.mu.Unlock()
	return vec
}

// topicModel returns the LDA model fitted at model generation gen or later.
// Concurrent first reads share one fit, which Stats counts as one compute.
// A fit is labelled with the generation read before it reads any fact, so a
// curated write that lands mid-fit leaves it stale, never mislabelled.
func (c *Cache) topicModel(gen uint64) *topics.Model {
	m, _, _ := c.topics.model.Get(gen, one{}, func() (*topics.Model, uint64, error) {
		at := c.topics.gen.Load()
		c.account(false)
		var docs [][]string
		for _, name := range c.kg.Entities() {
			if doc := entityDoc(c.kg, name, true); doc != nil {
				docs = append(docs, doc)
			}
		}
		cfg := topics.DefaultConfig(topicCount)
		cfg.Iters = fitSweeps
		return topics.Fit(docs, cfg), at, nil
	})
	return m
}

// entityDoc builds an entity's profile document: the content words of its
// name, then, for each fact about it (FactsAbout order), the predicate, the
// content words of the other endpoint's name and those of the supporting
// sentence. With curatedOnly it reads the curated facts alone and returns
// nil for an entity that has none.
func entityDoc(kg *core.KG, name string, curatedOnly bool) []string {
	var words []string
	add := func(text string) {
		for _, s := range nlp.Process(text) {
			words = append(words, nlp.ContentWords(s)...)
		}
	}
	add(name)
	used := false
	for _, f := range kg.FactsAbout(name) {
		if curatedOnly && !f.Curated {
			continue
		}
		used = true
		words = append(words, f.Predicate)
		if f.Subject == name {
			add(f.Object)
		} else {
			add(f.Subject)
		}
		if f.Provenance.Sentence != "" {
			add(f.Provenance.Sentence)
		}
	}
	if curatedOnly && !used {
		return nil
	}
	return words
}

// nameSeed is an entity's fold-in seed: the FNV-1a hash of its name.
func nameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}
