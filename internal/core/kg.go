// Package core implements NOUS's primary contribution: a dynamic knowledge
// graph that fuses curated knowledge-base facts with facts extracted from
// streaming text. Every fact carries provenance (source, document, sentence,
// timestamp), a confidence score and a curated/extracted flag; extracted
// facts can be evicted by a sliding time window while the curated substrate
// persists. Downstream consumers (trend detection, frequent-graph mining)
// subscribe to fact-level change events.
package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"nous/internal/graph"
	"nous/internal/ontology"
	"nous/internal/temporal"
)

// Provenance records where a fact came from.
type Provenance struct {
	Source   string    // data source, e.g. "yago", "wsj"
	DocID    string    // document identifier within the source
	Sentence string    // supporting sentence (empty for curated facts)
	Time     time.Time // publication / observation time
}

// Triple is one (subject, predicate, object) fact with types, confidence and
// provenance. Confidence is in [0,1]; curated facts conventionally carry 1.
type Triple struct {
	Subject     string
	Predicate   string
	Object      string
	SubjectType ontology.EntityType
	ObjectType  ontology.EntityType
	Confidence  float64
	Curated     bool
	Provenance  Provenance
}

// FactID identifies a fact stored in the KG.
type FactID = graph.EdgeID

// Fact is a stored triple plus its ID and endpoint vertex IDs. It is a value
// decoded from the fact's graph edge on every read (see fact.go); the KG holds
// no Fact of its own.
type Fact struct {
	ID       FactID
	Src, Dst graph.VertexID
	Triple
}

// Event is a fact-level change notification.
type Event struct {
	Kind EventKind
	Fact Fact
}

// EventKind distinguishes additions from evictions.
type EventKind int

// Event kinds.
const (
	FactAdded EventKind = iota
	FactEvicted
)

// KG is the dynamic knowledge graph. All methods are safe for concurrent
// use.
type KG struct {
	mu sync.RWMutex

	// g holds every entity as a vertex row (type, name, aliases) and files
	// it in its entity index, which all name lookups read.
	g   *graph.Graph
	ont *ontology.Ontology

	// tix is the time-ordered edge index, kept in sync through the
	// graph's mutation stream. It serves windowed reads and drives
	// EvictBefore: eviction reads the index prefix strictly before the
	// cutoff, so the KG needs no separate insertion-order timeline.
	tix *temporal.Index
	// undated holds the IDs of extracted facts with no provenance time (see
	// the undated predicate). Their edges carry the timeless sentinel
	// timestamp, which the index's dated reads skip, so EvictBefore sweeps
	// this set separately — undated extracted knowledge counts as infinitely
	// old.
	undated map[FactID]struct{}

	listeners []func(Event)
}

// NewKG returns an empty KG over the given ontology. A nil ontology gets the
// default.
func NewKG(ont *ontology.Ontology) *KG {
	if ont == nil {
		ont = ontology.Default()
	}
	kg := &KG{
		g:       graph.New(),
		ont:     ont,
		undated: make(map[FactID]struct{}),
	}
	kg.tix = temporal.Attach(kg.g)
	return kg
}

// Graph exposes the underlying property graph (for algorithms such as
// PageRank and path search). Callers must not remove edges directly.
func (kg *KG) Graph() *graph.Graph { return kg.g }

// CompileView compiles the graph's view (graph.Compile; curated edges are
// the timeless ones) under the KG's read lock and returns it with the epoch
// read inside that lock. Every graph writer holds the KG lock exclusively,
// so the view is an exact cut: it holds precisely the edges of that epoch.
func (kg *KG) CompileView() (*graph.View, uint64) {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	return graph.Compile(kg.g, temporal.AlwaysVisible), kg.g.Epoch()
}

// TemporalIndex exposes the KG's time-ordered edge index. The index is owned
// by the KG (attached at construction, rebuilt by Rebuild) and shared with
// every windowed consumer.
func (kg *KG) TemporalIndex() *temporal.Index { return kg.tix }

// Ontology returns the KG's ontology.
func (kg *KG) Ontology() *ontology.Ontology { return kg.ont }

// Subscribe registers fn to receive fact change events. fn is invoked
// synchronously; it must not call back into the KG.
func (kg *KG) Subscribe(fn func(Event)) {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	kg.listeners = append(kg.listeners, fn)
}

// ReadLocked runs fn under the KG's read lock. Every write — the graph
// mutation, its epoch move and the listeners it notifies — runs under the
// write lock, so state a listener keeps, read inside fn, is at or after
// every epoch the caller read before the call. fn must not call back into
// the KG: a second read lock deadlocks once a writer queues between the two.
func (kg *KG) ReadLocked(fn func()) {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	fn()
}

// AddEntity registers an entity with a canonical name, a type and optional
// aliases, returning its vertex ID. Adding an existing name returns the
// existing vertex (aliases are merged; a more specific type overwrites a
// generic one). The empty name names no entity: AddEntity writes nothing
// for it and returns graph.NilVertex.
//
// Names are case-sensitive ("Apple" and "APPLE" are two entities); the
// surface forms Candidates matches are not. Each entity is found under the
// key (graph.Key) of its name and of each alias; an alias whose key is
// empty is dropped.
func (kg *KG) AddEntity(name string, typ ontology.EntityType, aliases ...string) graph.VertexID {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	return kg.addEntityLocked(name, typ, aliases...)
}

func (kg *KG) addEntityLocked(name string, typ ontology.EntityType, aliases ...string) graph.VertexID {
	if name == "" {
		return graph.NilVertex
	}
	if typ == "" {
		typ = ontology.TypeAny
	}
	id, ok := kg.g.Named(name)
	if !ok {
		id = kg.g.AddVertex(string(typ), name)
	} else if typ != ontology.TypeAny {
		// Upgrade a generic placeholder to the specific type. The label is
		// the type's only copy, so an upgraded entity is no longer generic
		// and a later specific type leaves it as it is.
		if label, _ := kg.g.VertexLabel(id); label == string(ontology.TypeAny) {
			kg.g.SetVertexLabel(id, string(typ))
		}
	}
	if len(aliases) > 0 {
		// The row stores alias keys. The name's own key needs no alias: the
		// graph files the name under it already.
		own := graph.Key(name)
		for _, a := range aliases {
			if key := graph.Key(a); key != "" && key != own {
				kg.g.AddVertexAlias(id, key)
			}
		}
	}
	return id
}

// Entity returns the vertex ID for a canonical name.
func (kg *KG) Entity(name string) (graph.VertexID, bool) {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	return kg.g.Named(name)
}

// EntityName returns the canonical name of a vertex.
func (kg *KG) EntityName(id graph.VertexID) (string, bool) {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	return kg.g.VertexName(id)
}

// EntityType returns the type of an entity by name.
func (kg *KG) EntityType(name string) (ontology.EntityType, bool) {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	id, ok := kg.g.Named(name)
	if !ok {
		return "", false
	}
	label, ok := kg.g.VertexLabel(id)
	return ontology.EntityType(label), ok
}

// Candidates returns the canonical names of the entities filed under the
// given surface form's key (case-insensitive), or, when none is, the
// token-affix fallback matches: entities with a key that begins or ends
// with the surface as a whole word ("DJI" matches alias "dji technology").
// A surface whose key is empty matches nothing.
func (kg *KG) Candidates(surface string) []string {
	key := graph.Key(surface)
	if key == "" {
		return nil
	}
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	var out []string
	kg.g.ScanFiled(key, func(v *graph.VertexScan) { out = append(out, v.Name) })
	if len(out) == 0 {
		prefix, suffix := []byte(key+" "), []byte(" "+key)
		var buf []byte // one key at a time, built in place
		affixed := func(s string) bool {
			buf = graph.AppendKey(buf[:0], s)
			return bytes.HasPrefix(buf, prefix) || bytes.HasSuffix(buf, suffix)
		}
		kg.g.ScanNamed(func(v *graph.VertexScan) bool {
			if affixed(v.Name) || slices.ContainsFunc(v.Aliases, affixed) {
				out = append(out, v.Name)
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

// ForEachAlias calls fn for every (alias, canonical, type) binding: each
// entity's name key and alias keys, bound to its name and type. The empty
// key binds nothing. Used to build NER gazetteers from the curated KB. fn
// runs inside one pass over the entity rows, under the KG's read lock, in
// vertex ID order: it must not call back into the KG. The gazetteer does
// not depend on the order (ner.Recognizer.AddGazetteer is
// order-independent).
func (kg *KG) ForEachAlias(fn func(alias, canonical string, typ ontology.EntityType)) {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	kg.g.ScanNamed(func(v *graph.VertexScan) bool {
		typ := ontology.EntityType(v.Label())
		if key := graph.Key(v.Name); key != "" {
			fn(key, v.Name, typ)
		}
		for _, a := range v.Aliases {
			fn(a, v.Name, typ)
		}
		return true
	})
}

// Entities returns all canonical entity names, sorted.
func (kg *KG) Entities() []string {
	kg.mu.RLock()
	out := make([]string, 0, kg.g.NumNamed())
	kg.g.ScanNamed(func(v *graph.VertexScan) bool {
		out = append(out, v.Name)
		return true
	})
	kg.mu.RUnlock()
	sort.Strings(out)
	return out
}

// NormalizeTriple validates a triple against the ontology, fills default
// endpoint types from the predicate signature and clamps confidence — the
// exact admission rule AddFact applies. It does not touch KG state beyond
// the (immutable) ontology, so it is safe without the KG lock.
func (kg *KG) NormalizeTriple(t Triple) (Triple, error) {
	if t.Subject == "" || t.Object == "" {
		return t, fmt.Errorf("core: fact with empty subject or object: %+v", t)
	}
	p, ok := kg.ont.Predicate(t.Predicate)
	if !ok {
		return t, fmt.Errorf("core: unknown predicate %q", t.Predicate)
	}
	if t.SubjectType == "" {
		t.SubjectType = p.Domain
	}
	if t.ObjectType == "" {
		t.ObjectType = p.Range
	}
	if !kg.ont.Compatible(t.Predicate, t.SubjectType, t.ObjectType) {
		return t, fmt.Errorf("core: triple (%s %s %s) violates %s(%s,%s)",
			t.Subject, t.Predicate, t.Object, t.Predicate, p.Domain, p.Range)
	}
	if t.Confidence < 0 {
		t.Confidence = 0
	}
	if t.Confidence > 1 {
		t.Confidence = 1
	}
	// Provenance time is stored on the edge as unix seconds: that is the
	// granularity that survives a WAL replay, a snapshot restore and
	// replication to a follower. Truncate at admission so the in-memory fact
	// equals its durable round-trip — a leader and its replicas must answer
	// with identical bytes. The zero time (undated) stays exactly zero.
	if !t.Provenance.Time.IsZero() {
		t.Provenance.Time = time.Unix(t.Provenance.Time.Unix(), 0)
	}
	return t, nil
}

// AddFact stores a triple, creating entities as needed, and returns the fact
// ID. Unknown predicates are rejected; type-incompatible triples are
// rejected. Confidence is clamped to [0,1].
func (kg *KG) AddFact(t Triple) (FactID, error) {
	ids, errs := kg.AddFacts([]Triple{t})
	if errs[0] != nil {
		return 0, errs[0]
	}
	return ids[0], nil
}

// AddFacts stores a batch of triples under one KG lock acquisition and one
// bulk write to the graph (its write lock taken once per batch rather than
// once per fact). It returns parallel slices: ids[i] is valid
// iff errs[i] is nil. Facts are stored, and change events emitted, in batch
// order.
func (kg *KG) AddFacts(ts []Triple) ([]FactID, []error) {
	ids := make([]FactID, len(ts))
	errs := make([]error, len(ts))
	if len(ts) == 0 {
		return ids, errs
	}

	kg.mu.Lock()
	defer kg.mu.Unlock()

	valid := make([]int, 0, len(ts)) // indexes into ts that passed validation
	norm := make([]Triple, 0, len(ts))
	specs := make([]graph.EdgeSpec, 0, len(ts))
	for i := range ts {
		t, err := kg.NormalizeTriple(ts[i])
		if err != nil {
			errs[i] = err
			continue
		}
		src := kg.addEntityLocked(t.Subject, t.SubjectType)
		dst := kg.addEntityLocked(t.Object, t.ObjectType)
		valid = append(valid, i)
		norm = append(norm, t)
		specs = append(specs, factEdge(t, src, dst))
	}

	eids, err := kg.g.AddEdges(specs)
	if err != nil {
		// Unreachable in practice: the entities were just created above and
		// vertices are never removed. Surface it per-triple regardless.
		for _, i := range valid {
			errs[i] = err
		}
		return ids, errs
	}
	for j, i := range valid {
		ids[i] = eids[j]
		if undated(norm[j].Curated, specs[j].Timestamp) {
			kg.undated[eids[j]] = struct{}{}
		}
		kg.notifyLocked(Event{Kind: FactAdded,
			Fact: Fact{ID: eids[j], Src: specs[j].Src, Dst: specs[j].Dst, Triple: norm[j]}})
	}
	return ids, errs
}

// PredicatesBetween returns the distinct predicates of facts from subject to
// object, sorted. It is the lookup distant supervision uses to label raw
// extractions with known KB relations.
func (kg *KG) PredicatesBetween(subject, object string) []string {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	s, ok1 := kg.g.Named(subject)
	o, ok2 := kg.g.Named(object)
	if !ok1 || !ok2 {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	kg.g.ForEachOutScan(s, func(e *graph.EdgeScan) bool {
		if label := e.LabelName(); e.Dst == o && !seen[label] {
			seen[label] = true
			out = append(out, label)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// HasFact reports whether a (subject, predicate, object) fact exists.
func (kg *KG) HasFact(subject, predicate, object string) bool {
	return kg.HasFactWindow(subject, predicate, object, temporal.All())
}

// HasFactWindow reports whether a (subject, predicate, object) fact exists
// inside the window (curated facts qualify in any window). An empty
// predicate matches any.
func (kg *KG) HasFactWindow(subject, predicate, object string, w temporal.Window) bool {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	s, ok1 := kg.g.Named(subject)
	o, ok2 := kg.g.Named(object)
	if !ok1 || !ok2 {
		return false
	}
	found := false
	kg.g.ForEachOutScan(s, func(e *graph.EdgeScan) bool {
		found = e.Dst == o && (predicate == "" || e.LabelName() == predicate) && w.ContainsScan(e)
		return !found
	})
	return found
}

// Fact returns the stored fact by ID.
func (kg *KG) Fact(id FactID) (Fact, bool) {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	return kg.factLocked(id)
}

// removeLocked deletes the fact's edge. The edge removal's mutation keeps
// the temporal index in sync.
func (kg *KG) removeLocked(id FactID) bool {
	delete(kg.undated, id)
	return kg.g.RemoveEdge(id)
}

// EvictBefore removes extracted (non-curated) facts observed strictly before
// cutoff and emits FactEvicted events. It returns the number evicted.
// Curated facts are never evicted: the paper fuses a persistent curated KB
// with a sliding window of extracted knowledge. Eviction candidates come off
// the temporal index — the dated prefix strictly before the cutoff — so no
// parallel insertion-order timeline (or its compaction bookkeeping) is
// needed. DatedIn skips the curated substrate (timeless sentinel
// timestamps) entirely, so the per-call cost scales with the evictable
// facts, not the curated KB; a dated-but-curated fact is skipped by flag.
// Extracted facts with no provenance time count as infinitely old (they sit
// on the sentinel, outside every dated read) and are swept from their own
// set.
func (kg *KG) EvictBefore(cutoff time.Time) int {
	kg.mu.Lock()
	defer kg.mu.Unlock()
	cut := cutoff.Unix()
	n := 0
	evict := func(id FactID) {
		f, ok := kg.factLocked(id)
		if !ok || f.Curated {
			return
		}
		kg.removeLocked(id)
		kg.notifyLocked(Event{Kind: FactEvicted, Fact: f})
		n++
	}
	for _, id := range kg.tix.DatedIn(temporal.Window{Since: math.MinInt64, Until: cut}) {
		evict(id)
	}
	if temporal.Timeless < cut {
		for id := range kg.undated {
			evict(id)
		}
	}
	return n
}

// FactsAbout returns all facts in which the named entity is subject or
// object, ordered by descending confidence then ID.
func (kg *KG) FactsAbout(name string) []Fact {
	return kg.FactsAboutWindow(name, temporal.All())
}

// FactsAboutWindow is FactsAbout restricted to the window: curated facts
// always qualify, extracted facts only when their provenance time lies in
// [w.Since, w.Until). The unbounded window returns exactly FactsAbout.
func (kg *KG) FactsAboutWindow(name string, w temporal.Window) []Fact {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	id, ok := kg.g.Named(name)
	if !ok {
		return nil
	}
	out := kg.factsLocked(func(fn func(*graph.EdgeScan) bool) { kg.g.ForEachIncidentScan(id, fn) }, w)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// AllFacts returns every stored fact ordered by ID.
func (kg *KG) AllFacts() []Fact {
	return kg.allFacts(temporal.All())
}

// allFacts returns every stored fact inside the window, ordered by ID (the
// scan's order).
func (kg *KG) allFacts(w temporal.Window) []Fact {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	return kg.factsLocked(kg.g.ScanEdges, w)
}

// ScanFacts calls fn with every stored fact, in ID order, under one
// acquisition of the KG's read lock. Each fact is decoded into one value
// that every call reuses, so the pass builds no fact list: fn must copy out
// what it keeps, must not retain f, and must not call back into the KG.
// Pipeline assembly seeds each of its folds from this one pass.
func (kg *KG) ScanFacts(fn func(f *Fact)) {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	var f Fact
	kg.g.ScanEdges(func(e *graph.EdgeScan) bool {
		f = decode(e)
		fn(&f)
		return true
	})
}

// NumFacts returns the number of stored facts.
func (kg *KG) NumFacts() int {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	return kg.g.NumEdges()
}

// NumEntities returns the number of registered entities.
func (kg *KG) NumEntities() int {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	return kg.g.NumNamed()
}

// ObjectsOfWindow returns the object names of facts (subject, pred, *)
// inside the window (an empty pred matches any), with their confidences,
// best first.
func (kg *KG) ObjectsOfWindow(subject, pred string, w temporal.Window) []ScoredEntity {
	return kg.scoredEndpoints(subject, pred, w, kg.g.ForEachOutScan,
		func(e *graph.EdgeScan) graph.VertexID { return e.Dst })
}

// SubjectsOfWindow returns the subject names of facts (*, pred, object)
// inside the window (an empty pred matches any), with their confidences,
// best first.
func (kg *KG) SubjectsOfWindow(pred, object string, w temporal.Window) []ScoredEntity {
	return kg.scoredEndpoints(object, pred, w, kg.g.ForEachInScan,
		func(e *graph.EdgeScan) graph.VertexID { return e.Src })
}

// scoredEndpoints lists the far endpoints of the named entity's edges in one
// direction (scan) that carry pred (empty matches any) inside the window,
// scored by confidence, best first.
func (kg *KG) scoredEndpoints(name, pred string, w temporal.Window,
	scan func(graph.VertexID, func(*graph.EdgeScan) bool), far func(*graph.EdgeScan) graph.VertexID) []ScoredEntity {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	id, ok := kg.g.Named(name)
	if !ok {
		return nil
	}
	var out []ScoredEntity
	scan(id, func(e *graph.EdgeScan) bool {
		if (pred == "" || e.LabelName() == pred) && w.ContainsScan(e) {
			if n := e.VertexName(far(e)); n != "" {
				out = append(out, ScoredEntity{Name: n, Score: e.Weight})
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ScoredEntity pairs an entity name with a score (confidence, rank, …).
type ScoredEntity struct {
	Name  string
	Score float64
}

// Neighborhood returns the set of entity names within the given number of
// hops of the named entity (excluding itself), treating edges as undirected.
// It is a breadth-first walk that stops at depth hops.
func (kg *KG) Neighborhood(name string, hops int) []string {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	src, ok := kg.g.Named(name)
	if !ok || hops <= 0 {
		return nil
	}
	seen := map[graph.VertexID]bool{src: true}
	var out []string
	frontier := []graph.VertexID{src}
	for depth := 0; depth < hops && len(frontier) > 0; depth++ {
		var next []graph.VertexID
		for _, u := range frontier {
			kg.g.ForEachIncidentScan(u, func(e *graph.EdgeScan) bool {
				v := e.Dst
				if v == u {
					v = e.Src
				}
				if !seen[v] {
					seen[v] = true
					next = append(next, v)
					if n := e.VertexName(v); n != "" {
						out = append(out, n)
					}
				}
				return true
			})
		}
		frontier = next
	}
	sort.Strings(out)
	return out
}

func (kg *KG) notifyLocked(ev Event) {
	for _, fn := range kg.listeners {
		fn(ev)
	}
}
