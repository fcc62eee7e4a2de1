// Package symtab implements the global string interner backing the graph's
// memory-lean core. Vertex labels, edge predicates, sources and fact types are
// drawn from small, heavily repeated vocabularies; interning maps each
// distinct string to a dense SymID (a uint32) with a single canonical string
// per symbol, so the graph's columnar storage and indexes key off 4-byte IDs
// and never duplicate the strings themselves.
//
// Concurrency model: the hot paths — Intern on an already-known string,
// Lookup, Resolve — are lock-free. The table keeps two copy-on-write views
// behind atomic pointers (string→ID map and ID→string slice); interning a
// new symbol takes a mutex, rebuilds both views and publishes them
// atomically. Published views are never mutated in place, so readers racing
// a publication see either the old or the new complete view. The cost of
// publication is O(table size), which is fine because the symbol vocabulary
// is small and converges quickly (new predicates stop appearing); symbols
// are never removed.
package symtab

import (
	"strings"
	"sync"
	"sync/atomic"
)

// SymID is a dense identifier for one interned string. IDs are assigned
// sequentially from 0 in interning order and are stable for the lifetime of
// the table (symbols are never removed or renumbered).
type SymID uint32

// Table is one interner. The zero value is ready to use.
type Table struct {
	mu   sync.Mutex                       // serializes interning of new symbols
	ids  atomic.Pointer[map[string]SymID] // COW view: string -> ID
	strs atomic.Pointer[[]string]         // COW view: ID -> string
}

// NewTable returns an empty interner.
func NewTable() *Table { return &Table{} }

// Intern returns the SymID for s, assigning a fresh one if s has not been
// seen before. Interning an already-known string is lock-free.
func (t *Table) Intern(s string) SymID {
	if m := t.ids.Load(); m != nil {
		if id, ok := (*m)[s]; ok {
			return id
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.ids.Load()
	if old != nil {
		if id, ok := (*old)[s]; ok {
			return id
		}
	}
	// Clone the string so the table never pins a larger backing array the
	// caller sliced s out of (e.g. a decode buffer).
	s = strings.Clone(s)
	var strs []string
	next := make(map[string]SymID, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
		strs = append(strs, *t.strs.Load()...)
	}
	id := SymID(len(strs))
	next[s] = id
	strs = append(strs, s)
	// Publish the slice first: a reader that wins the map race and resolves
	// the fresh ID must find its string already present.
	t.strs.Store(&strs)
	t.ids.Store(&next)
	return id
}

// Lookup returns the SymID for s without interning it. The second result is
// false when s has never been interned — which also means no stored element
// can carry it, a fact read paths use to answer "no match" without touching
// the table.
func (t *Table) Lookup(s string) (SymID, bool) {
	m := t.ids.Load()
	if m == nil {
		return 0, false
	}
	id, ok := (*m)[s]
	return id, ok
}

// Resolve returns the canonical string for id, or "" when id was never
// assigned. (The empty string itself interns like any other; a table that
// has interned "" resolves its ID to "" indistinguishably, which is the
// correct round-trip.)
func (t *Table) Resolve(id SymID) string {
	p := t.strs.Load()
	if p == nil || int(id) >= len(*p) {
		return ""
	}
	return (*p)[id]
}

// Len returns the number of interned symbols.
func (t *Table) Len() int {
	p := t.strs.Load()
	if p == nil {
		return 0
	}
	return len(*p)
}

// global is the process-wide table the graph package interns through. A
// single shared vocabulary keeps SymIDs comparable across graphs (a restored
// graph and a live one agree on predicate IDs) and costs nothing extra: the
// vocabularies would be near-identical per graph anyway.
var global Table

// Intern interns s in the global table.
func Intern(s string) SymID { return global.Intern(s) }

// Lookup looks s up in the global table without interning it.
func Lookup(s string) (SymID, bool) { return global.Lookup(s) }

// Resolve resolves id in the global table.
func Resolve(id SymID) string { return global.Resolve(id) }

// Len returns the size of the global table.
func Len() int { return global.Len() }
