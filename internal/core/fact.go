package core

import (
	"time"

	"nous/internal/graph"
	"nous/internal/ontology"
	"nous/internal/temporal"
)

// The fact schema. A fact is stored exactly once, as a graph edge — the KG
// keeps no second copy — so this file is the whole mapping between the two:
//
//	src, dst        subject and object (entity vertices; names read off their rows)
//	label           predicate
//	weight          confidence
//	timestamp       provenance time in unix seconds (temporal.Timeless = undated)
//	Row.SType       the triple's subject type   ┐ not derivable from the vertices: a
//	Row.OType       the triple's object type    ┘ signature can be broader than the entity's type
//	Row.Curated     whether the fact is curated
//	Row.Source      provenance source
//	Row.Doc         provenance document ID
//	Row.Sentence    supporting sentence
//
// factEdge is the only writer of the row and decode the only reader
// that turns it back into a Fact; the WAL, snapshots and replication carry
// the edge and nothing else.

// factEdge encodes a normalized triple between two entity vertices.
func factEdge(t Triple, src, dst graph.VertexID) graph.EdgeSpec {
	return graph.EdgeSpec{
		Src: src, Dst: dst, Label: t.Predicate,
		Weight: t.Confidence, Timestamp: t.Provenance.Time.Unix(),
		Row: graph.FactRow{
			Source:   t.Provenance.Source,
			Doc:      t.Provenance.DocID,
			Sentence: t.Provenance.Sentence,
			SType:    string(t.SubjectType),
			OType:    string(t.ObjectType),
			Curated:  t.Curated,
		},
	}
}

// decode builds the fact an edge stores. It copies every field out of the
// view, so the result is owned by the caller; the endpoints' names are read
// off their rows through the scan's lock. It runs inside a graph scan
// callback.
func decode(e *graph.EdgeScan) Fact {
	row := e.Row()
	f := Fact{ID: e.ID, Src: e.Src, Dst: e.Dst, Triple: Triple{
		Subject:     e.VertexName(e.Src),
		Predicate:   e.LabelName(),
		Object:      e.VertexName(e.Dst),
		SubjectType: endpointType(e, row.SType, e.Src),
		ObjectType:  endpointType(e, row.OType, e.Dst),
		Confidence:  e.Weight,
		Curated:     row.Curated,
		Provenance: Provenance{
			Source:   row.Source,
			DocID:    row.Doc,
			Sentence: row.Sentence,
		},
	}}
	// The undated sentinel decodes to the zero time exactly, the value
	// NormalizeTriple admitted, not to a time.Unix value that merely equals it.
	if e.Timestamp != temporal.Timeless {
		f.Provenance.Time = time.Unix(e.Timestamp, 0)
	}
	return f
}

// endpointType resolves a fact endpoint's type: the type recorded on the
// edge wins; an edge that records none falls back to the vertex's label,
// read through the scan's lock (EdgeScan.VertexLabel) — not Graph.Vertex,
// whose second read lock would deadlock once a writer queues in between.
func endpointType(e *graph.EdgeScan, recorded string, id graph.VertexID) ontology.EntityType {
	if recorded != "" {
		return ontology.EntityType(recorded)
	}
	label, ok := e.VertexLabel(id)
	if !ok {
		return ontology.TypeAny
	}
	return ontology.EntityType(label)
}

// undated is the membership rule of KG.undated: an extracted fact whose edge
// sits at or before the timeless sentinel, where no dated index read finds
// it.
func undated(curated bool, ts int64) bool {
	return !curated && ts <= temporal.Timeless
}

// trackUndatedLocked files one edge in or out of the undated set.
func (kg *KG) trackUndatedLocked(e *graph.EdgeScan) {
	if undated(e.Curated(), e.Timestamp) {
		kg.undated[e.ID] = struct{}{}
	} else {
		delete(kg.undated, e.ID)
	}
}

// factLocked decodes one fact by ID.
func (kg *KG) factLocked(id FactID) (f Fact, ok bool) {
	ok = kg.g.ScanEdge(id, func(e *graph.EdgeScan) { f = decode(e) })
	return f, ok
}

// factsLocked decodes every edge scan visits that lies in the window.
func (kg *KG) factsLocked(scan func(func(*graph.EdgeScan) bool), w temporal.Window) []Fact {
	var out []Fact
	scan(func(e *graph.EdgeScan) bool {
		if w.ContainsScan(e) {
			out = append(out, decode(e))
		}
		return true
	})
	return out
}
