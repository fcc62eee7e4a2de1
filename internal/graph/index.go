package graph

import (
	"hash/maphash"
	"slices"
	"strings"
	"unicode/utf8"

	"nous/internal/graph/symtab"
)

// The entity index
//
// The graph files every named vertex under the key of its name and under
// the key of each of its aliases (Key), in one map from a key's hash to the
// vertices filed under it (Graph.index). The keys themselves are not
// stored: the rows hold them already — aliases are keys, and a name's key
// is derived from the name — so every lookup checks the rows it finds. The
// index is derived state, never logged: the write paths that change a
// vertex row — AddVertex, AddVertexAlias, their replicated records and
// RestoreVertices — keep it under the write lock, so it cannot disagree
// with the rows, whichever of the live, replay, snapshot and follower paths
// wrote them.
//
// The rules:
//   - a vertex with the empty name is unnamed: neither it nor its aliases
//     are filed;
//   - a name whose key is empty (white space only) is filed under the empty
//     key, where Named finds it; the empty key is the alias of nothing, so
//     surface matching skips it;
//   - a vertex is filed at most once under a key, however many of its name
//     and aliases share it.

// Key normalizes a name or an alias to its entity-index key: trimmed of
// surrounding white space and lower-cased.
func Key(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// AppendKey appends Key(s) to b. An ASCII s is lower-cased in place, so
// nothing is allocated while b has room.
func AppendKey(b []byte, s string) []byte {
	s = strings.TrimSpace(s)
	n := len(b)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(b[:n], strings.ToLower(s)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// keySeed seeds the index's key hashes.
var keySeed = maphash.MakeSeed()

// keyHash hashes Key(s), the slot s is filed under.
func keyHash(s string) uint64 {
	var buf [64]byte
	return maphash.Bytes(keySeed, AppendKey(buf[:0], s))
}

// rowHashes returns the key hashes of a vertex row, its name's first; nil
// for an unnamed vertex, which is not filed.
func rowHashes(row *vertexRow) []uint64 {
	if row.name == "" {
		return nil
	}
	hs := make([]uint64, 1, 1+len(row.aliases))
	hs[0] = keyHash(row.name)
	for _, a := range row.aliases {
		hs = append(hs, keyHash(a))
	}
	return hs
}

// insertVertexLocked stores a new vertex row at its ID, growing the rows to
// reach it, and files it under hs, the hashes of its name's and aliases'
// keys, which the caller computed before taking the write lock.
func (g *Graph) insertVertexLocked(id VertexID, row vertexRow, hs []uint64) {
	g.vertices = append(g.vertices, make([]vertexRow, max(0, int(id)+1-len(g.vertices)))...)
	row.live = true
	g.vertices[id] = row
	g.numVertices++
	if row.name == "" {
		return
	}
	g.named++
	for _, h := range hs {
		g.fileLocked(h, id)
	}
}

// fileLocked files vertex id under key hash h unless it is filed there
// already.
func (g *Graph) fileLocked(h uint64, id VertexID) {
	ids := g.index[h]
	if !slices.Contains(ids, id) {
		g.index[h] = append(ids, id)
	}
}

// filedUnder reports whether row is filed under key: its name's key or one
// of its aliases' is key.
func filedUnder(row *vertexRow, key string) bool {
	var buf [64]byte
	if string(AppendKey(buf[:0], row.name)) == key {
		return true
	}
	for _, a := range row.aliases {
		if Key(a) == key {
			return true
		}
	}
	return false
}

// Named returns the vertex whose name is exactly name.
func (g *Graph) Named(name string) (VertexID, bool) {
	h := keyHash(name)
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, id := range g.index[h] {
		if g.vertices[id].name == name {
			return id, true
		}
	}
	return NilVertex, false
}

// NumNamed returns the number of named vertices.
func (g *Graph) NumNamed() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.named
}

// VertexName returns the name of vertex id; it reports false for a missing
// or unnamed vertex.
func (g *Graph) VertexName(id VertexID) (string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	name := g.row(id).name
	return name, name != ""
}

// VertexLabel returns the label of vertex id. Unlike Vertex it copies
// nothing.
func (g *Graph) VertexLabel(id VertexID) (string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.vertexLabel(id)
}

// vertexLabel resolves vertex id's label. The caller holds the lock.
func (g *Graph) vertexLabel(id VertexID) (string, bool) {
	if row := g.row(id); row.live {
		return symtab.Resolve(row.label), true
	}
	return "", false
}

// VertexScan is a read-only view of one named vertex's row. It is valid
// only for the duration of the callback it is passed to.
type VertexScan struct {
	ID      VertexID
	Name    string
	Aliases []string // alias keys in insertion order; must not be modified or retained
	label   symtab.SymID
}

// Label resolves the vertex's label.
func (v *VertexScan) Label() string { return symtab.Resolve(v.label) }

func (v *VertexScan) fill(id VertexID, row *vertexRow) {
	v.ID, v.Name, v.Aliases, v.label = id, row.name, row.aliases, row.label
}

// ScanFiled calls fn with a view of each vertex filed under key, which must
// be a Key, in filing order. fn must not call back into the graph or retain
// the view.
func (g *Graph) ScanFiled(key string, fn func(*VertexScan)) {
	h := keyHash(key)
	g.mu.RLock()
	defer g.mu.RUnlock()
	var v VertexScan
	for _, id := range g.index[h] {
		if row := &g.vertices[id]; filedUnder(row, key) {
			v.fill(id, row)
			fn(&v)
		}
	}
}

// ScanNamed calls fn with a view of every named vertex, in ascending ID
// order, while fn returns true. fn must not call back into the graph or
// retain the view.
func (g *Graph) ScanNamed(fn func(*VertexScan) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var v VertexScan
	for i := range g.vertices {
		if row := &g.vertices[i]; row.name != "" { // an absent row is unnamed
			v.fill(VertexID(i), row)
			if !fn(&v) {
				return
			}
		}
	}
}
