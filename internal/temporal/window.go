// Package temporal makes the dynamic knowledge graph queryable *in time*.
// Every edge in the graph already carries a timestamp (the provenance time
// of the fact it stores); this package adds the two pieces the paper's
// "querying a dynamic KG" claim needs on the read side:
//
//   - Window, a half-open [Since, Until) unix-seconds interval that the
//     traversal consumers (pathsearch, the QA executor, the entity-summary
//     and export paths) accept as a read view. The zero Window is unbounded,
//     so every pre-existing call site keeps its exact semantics.
//   - Index, one time-ordered run of edge entries kept in sync with the
//     graph through its mutation stream and rebuilt from graph state on
//     recovery, answering "which edges fall inside this window" with one
//     contiguous range and no full scan.
//
// Windowing follows the paper's fusion model: curated facts are the
// persistent background substrate and are always in scope; a window scopes
// the *extracted* stream by provenance time. A full-range window is required
// to behave byte-identically to an unwindowed read — consumers gate their
// filtering on Window.IsAll so the unwindowed hot path stays untouched.
package temporal

import (
	"math"
	"time"

	"nous/internal/graph"
)

// Window is a half-open time range [Since, Until) in unix seconds. The zero
// Window is unbounded (it contains every timestamp), as is the explicit
// {math.MinInt64, math.MaxInt64} form.
type Window struct {
	Since int64 `json:"since"`
	Until int64 `json:"until"`
}

// All returns the unbounded window.
func All() Window { return Window{} }

// Between returns the window [since, until).
func Between(since, until time.Time) Window {
	return Window{Since: since.Unix(), Until: until.Unix()}
}

// SinceTime returns the window [t, +inf).
func SinceTime(t time.Time) Window { return Window{Since: t.Unix(), Until: math.MaxInt64} }

// UntilTime returns the window (-inf, t) — "as of" semantics when t is the
// exclusive end of the period of interest.
func UntilTime(t time.Time) Window { return Window{Since: math.MinInt64, Until: t.Unix()} }

// IsAll reports whether the window is unbounded on both sides.
func (w Window) IsAll() bool {
	return (w.Since == 0 && w.Until == 0) ||
		(w.Since == math.MinInt64 && w.Until == math.MaxInt64)
}

// Bounded reports whether the window constrains at least one side.
func (w Window) Bounded() bool { return !w.IsAll() }

// IsEmpty reports whether the window can contain no timestamp at all (a
// degenerate or inverted bounded range, e.g. the result of intersecting
// disjoint windows).
func (w Window) IsEmpty() bool { return !w.IsAll() && w.Since >= w.Until }

// Contains reports whether ts lies inside the window. The unbounded window
// contains every timestamp.
func (w Window) Contains(ts int64) bool {
	if w.IsAll() {
		return true
	}
	return ts >= w.Since && ts < w.Until
}

// AlwaysVisible reports whether the edge is visible in every window: it
// stores a curated fact. Consumers that compile edges into columns
// (graph.Compile) evaluate it once per edge and keep the bit.
func AlwaysVisible(e *graph.EdgeScan) bool { return e.Curated() }

// ContainsScan is the read-view membership rule for graph traversals: an
// edge is visible when its timestamp falls inside the window, or when it
// stores a curated fact — curated knowledge is timeless background, only the
// extracted stream is windowed. It reads the graph.EdgeScan in place; beam
// expansion calls it once per scanned edge.
func (w Window) ContainsScan(e *graph.EdgeScan) bool {
	return w.Contains(e.Timestamp) || AlwaysVisible(e)
}

// ContainsStamp is the membership rule over an edge already reduced to its
// timestamp and AlwaysVisible bit — the form a compiled graph.View stores.
func (w Window) ContainsStamp(ts int64, alwaysVisible bool) bool {
	return alwaysVisible || w.Contains(ts)
}

// Empty returns a canonical window containing no timestamp. (A zero-value
// Window is unbounded, so "nothing" needs an explicit inverted range.)
func Empty() Window { return Window{Since: math.MaxInt64, Until: math.MinInt64} }

// Intersect returns the overlap of two windows. Intersecting with the
// unbounded window returns the other window unchanged; a disjoint pair
// yields an empty (nothing-matching) bounded window — never the zero
// value, which would read as unbounded.
func (w Window) Intersect(o Window) Window {
	if w.IsAll() {
		return o
	}
	if o.IsAll() {
		return w
	}
	out := w
	if o.Since > out.Since {
		out.Since = o.Since
	}
	if o.Until < out.Until {
		out.Until = o.Until
	}
	// Canonicalize every disjoint result to one empty window: the exact
	// {0, 0} case would otherwise read as the unbounded zero value, and
	// distinct inverted ranges would pollute (epoch, window)-keyed caches
	// with useless per-request keys.
	if out == (Window{}) || out.IsEmpty() {
		return Empty()
	}
	return out
}

// String renders the window for answer texts and logs: dates for bounded
// ends, an ellipsis for unbounded ones.
func (w Window) String() string {
	if w.IsAll() {
		return "[all time]"
	}
	if w.IsEmpty() {
		return "[empty window]"
	}
	end := func(ts int64) string {
		if ts == math.MinInt64 || ts == math.MaxInt64 {
			return "…"
		}
		return time.Unix(ts, 0).UTC().Format("2006-01-02")
	}
	return "[" + end(w.Since) + ", " + end(w.Until) + ")"
}
