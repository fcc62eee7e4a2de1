package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"nous/internal/graph"
)

// Snapshot file layout (all fixed-width fields little-endian):
//
//	magic    [8]byte  "NOUSNAP1"
//	version  uint32   5
//	sections uint32   snapSections
//	epoch    uint64   graph mutation epoch at the cut
//	nextV    uint64   vertex ID allocator
//	nextE    uint64   edge ID allocator
//	walSeq   uint64   first WAL segment whose records may postdate this cut
//	hcrc     uint32   CRC-32C (Castagnoli) of the 48 header bytes above
//	one symbol-table section:
//	  length uint64   payload byte count
//	  crc    uint32   CRC-32C (Castagnoli) of the payload
//	  payload         count uvarint, then count length-prefixed strings,
//	                  sorted lexicographically (reference = sort rank)
//	then snapSections element sections, section i holding the vertices
//	and edges whose ID % snapSections is i, each in ascending ID order:
//	  length uint64   payload byte count
//	  crc    uint32   CRC-32C (Castagnoli) of the payload
//	  payload         vcount uvarint, vertices...; ecount uvarint, edges...
//
// The symbol-table section stores each distinct string once — labels,
// vertex names and aliases, and the strings of each edge's fact row — and
// element sections encode elements with uvarint references into it. A vertex is
// its ID, label and name references, then an alias count and the alias
// references in insertion order; an edge is its ID, endpoints, label
// reference, weight, timestamp, then its fact row: source, doc, sentence,
// stype and otype references and a curated byte. The table is sorted, so
// equal graph state produces byte-identical files. Version 5 is the only
// version written and the only one read: it is version 4 with the vertex row
// in place of each vertex's (key, value) property list, and a file with
// another version or section count is refused. The header CRC matters beyond
// the load: a flipped bit in nextE would size the edge slab to the bogus ID on
// the next AddEdge, and a flipped bit in walSeq would let prune delete WAL
// segments the snapshot does not cover.
//
// Element sections are self-contained given the symbol table, so the writer
// encodes all of them in parallel and the loader decodes them in parallel
// from their offsets.

const (
	snapMagic   = "NOUSNAP1"
	snapVersion = 5
	snapSuffix  = ".snap"
	// snapHeaderLen is the header's length, its CRC included.
	snapHeaderLen = 52
	// snapSections is the number of element sections. It is a property of
	// the file format alone: the header records it, and a reader refuses a
	// file with another count.
	snapSections = 16
)

// section returns the element section that holds ID id.
func section(id int64) int { return int(uint64(id) % snapSections) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapName is the file name for a snapshot at the given epoch. Zero-padded
// hex so lexicographic order equals epoch order.
func snapName(epoch uint64) string { return fmt.Sprintf("snap-%016x%s", epoch, snapSuffix) }

// writeSnapshot encodes snap and atomically publishes it into dir, returning
// the file's path and size. The file appears under its final name only after
// its contents and the directory entry are fsynced, so a crash mid-write
// never leaves a partially-written file that could be mistaken for a valid
// snapshot.
func writeSnapshot(dir string, snap *graph.GraphSnapshot, walSeq uint64) (string, int64, error) {
	// Deal the elements into their sections. Each section keeps the
	// snapshot's ascending ID order.
	vertices := make([][]graph.Vertex, snapSections)
	for _, v := range snap.Vertices {
		i := section(int64(v.ID))
		vertices[i] = append(vertices[i], v)
	}
	edges := make([][]graph.Edge, snapSections)
	for _, e := range snap.Edges {
		i := section(int64(e.ID))
		edges[i] = append(edges[i], e)
	}

	// Pass one: collect every distinct string per section in parallel, then
	// merge and sort into the snapshot's symbol table. Sorting makes ID
	// assignment deterministic regardless of collection order, which keeps
	// equal state encoding to byte-identical files.
	perSection := make([]map[string]struct{}, snapSections)
	var wg sync.WaitGroup
	for i := 0; i < snapSections; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			set := make(map[string]struct{})
			for _, v := range vertices[i] {
				set[v.Label] = struct{}{}
				set[v.Name] = struct{}{}
				for _, a := range v.Aliases {
					set[a] = struct{}{}
				}
			}
			for _, e := range edges[i] {
				r := &e.Row
				for _, s := range [...]string{e.Label, r.Source, r.Doc, r.Sentence, r.SType, r.OType} {
					set[s] = struct{}{}
				}
			}
			perSection[i] = set
		}(i)
	}
	wg.Wait()
	merged := make(map[string]struct{})
	for _, set := range perSection {
		for s := range set {
			merged[s] = struct{}{}
		}
	}
	table := make([]string, 0, len(merged))
	for s := range merged {
		table = append(table, s)
	}
	sort.Strings(table)
	index := make(map[string]uint32, len(table))
	for i, s := range table {
		index[s] = uint32(i)
	}
	symc := &codec{b: make([]byte, 0, 1<<12)}
	symc.putUvarint(uint64(len(table)))
	for _, s := range table {
		symc.putString(s)
	}

	// Pass two: encode the sections in parallel against the read-only index.
	payloads := make([][]byte, snapSections)
	for i := 0; i < snapSections; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &codec{b: make([]byte, 0, 1<<12), syms: index}
			c.putUvarint(uint64(len(vertices[i])))
			for _, v := range vertices[i] {
				c.putVertex(v)
			}
			c.putUvarint(uint64(len(edges[i])))
			for _, e := range edges[i] {
				c.putEdge(e)
			}
			payloads[i] = c.bytes()
		}(i)
	}
	wg.Wait()
	// The symbol table is the first framed section.
	payloads = append([][]byte{symc.bytes()}, payloads...)

	head := make([]byte, 0, snapHeaderLen)
	head = append(head, snapMagic...)
	head = binary.LittleEndian.AppendUint32(head, snapVersion)
	head = binary.LittleEndian.AppendUint32(head, snapSections)
	head = binary.LittleEndian.AppendUint64(head, snap.Epoch)
	head = binary.LittleEndian.AppendUint64(head, uint64(snap.NextVertex))
	head = binary.LittleEndian.AppendUint64(head, uint64(snap.NextEdge))
	head = binary.LittleEndian.AppendUint64(head, walSeq)
	head = binary.LittleEndian.AppendUint32(head, crc32.Checksum(head, castagnoli))

	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	write := func(b []byte) {
		if err == nil {
			_, err = tmp.Write(b)
		}
	}
	write(head)
	frame := make([]byte, 12)
	for _, p := range payloads {
		binary.LittleEndian.PutUint64(frame[0:], uint64(len(p)))
		binary.LittleEndian.PutUint32(frame[8:], crc32.Checksum(p, castagnoli))
		write(frame)
		write(p)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", 0, fmt.Errorf("persist: writing snapshot: %w", err)
	}

	final := filepath.Join(dir, snapName(snap.Epoch))
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", 0, err
	}
	if err := syncDir(dir); err != nil {
		return "", 0, err
	}
	fi, err := os.Stat(final)
	if err != nil {
		return "", 0, err
	}
	return final, fi.Size(), nil
}

// readSnapshot decodes a snapshot file into its vertices and edges.
// Any framing, CRC or payload error fails the whole file: a snapshot is
// either fully valid or unusable (the caller then falls back to an older one).
func readSnapshot(path string) (*graph.GraphSnapshot, uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return decodeSnapshot(raw, path)
}

// decodeSnapshot parses an in-memory snapshot image. path only labels errors;
// replication followers decode snapshots fetched over HTTP without touching
// disk. The snapshot lists the elements section by section, which is not ID
// order; the graph's Restore API takes them in any order.
func decodeSnapshot(raw []byte, path string) (*graph.GraphSnapshot, uint64, error) {
	snap, walSeq, err := parseSnapshotHeader(raw, path)
	if err != nil {
		return nil, 0, err
	}

	// Frame pass: locate and CRC-check every section before decoding: the
	// symbol table, then the element sections.
	type span struct{ start, end int }
	spans := make([]span, 1+snapSections)
	off := snapHeaderLen
	for i := range spans {
		if off+12 > len(raw) {
			return nil, 0, fmt.Errorf("persist: %s: truncated at section %d frame", path, i)
		}
		n := binary.LittleEndian.Uint64(raw[off:])
		crc := binary.LittleEndian.Uint32(raw[off+8:])
		off += 12
		if uint64(len(raw)-off) < n {
			return nil, 0, fmt.Errorf("persist: %s: truncated section %d payload", path, i)
		}
		end := off + int(n)
		if crc32.Checksum(raw[off:end], castagnoli) != crc {
			return nil, 0, fmt.Errorf("persist: %s: section %d CRC mismatch", path, i)
		}
		spans[i] = span{off, end}
		off = end
	}

	// Symbol table first: element decoding references it.
	d := newDecoder(raw[spans[0].start:spans[0].end])
	n := d.count("symbol count")
	syms := make([]string, 0, n)
	for j := uint64(0); j < n && d.err == nil; j++ {
		syms = append(syms, d.string())
	}
	d.end("symbol table")
	if d.err != nil {
		return nil, 0, fmt.Errorf("persist: %s: symbol table: %w", path, d.err)
	}
	spans = spans[1:]

	// Decode pass: element sections are independent, so they decode in
	// parallel, each straight into its own range of one list per kind.
	// A section's vertex count leads it, so the vertex list is sized before
	// any vertex decodes; its edge count follows its vertices, so the edge
	// list is sized between the two parallel passes.
	ds := make([]*decoder, snapSections)
	vat := make([]int, snapSections+1) // section i's vertices are Vertices[vat[i]:vat[i+1]]
	for i := range ds {
		ds[i] = &decoder{b: raw[spans[i].start:spans[i].end], syms: syms}
		vat[i+1] = vat[i] + int(ds[i].count("vertex count"))
	}
	snap.Vertices = make([]graph.Vertex, vat[snapSections])
	eat := make([]int, snapSections+1) // section i's edges are Edges[eat[i]:eat[i+1]]
	err = eachSection(ds, path, func(i int, d *decoder) {
		vs := snap.Vertices[vat[i]:vat[i+1]]
		for j := 0; j < len(vs) && d.err == nil; j++ {
			if vs[j] = d.vertex(); section(int64(vs[j].ID)) != i {
				d.fail("vertex of another section")
			}
		}
		eat[i+1] = int(d.count("edge count"))
	})
	if err != nil {
		return nil, 0, err
	}
	for i := range ds {
		eat[i+1] += eat[i]
	}
	snap.Edges = make([]graph.Edge, eat[snapSections])
	err = eachSection(ds, path, func(i int, d *decoder) {
		es := snap.Edges[eat[i]:eat[i+1]]
		for j := 0; j < len(es) && d.err == nil; j++ {
			if es[j] = d.edge(); section(int64(es[j].ID)) != i {
				d.fail("edge of another section")
			}
		}
		d.end("section")
	})
	if err != nil {
		return nil, 0, err
	}
	return snap, walSeq, nil
}

// eachSection runs fn on every element section's decoder in parallel and
// returns the error of the lowest-numbered section that failed, if any. A
// decoder that already failed reads nothing more, so fn need not check.
func eachSection(ds []*decoder, path string, fn func(i int, d *decoder)) error {
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d *decoder) {
			defer wg.Done()
			fn(i, d)
		}(i, d)
	}
	wg.Wait()
	for i, d := range ds {
		if d.err != nil {
			return fmt.Errorf("persist: %s: element section %d: %w", path, i, d.err)
		}
	}
	return nil
}

// parseSnapshotHeader checks a snapshot's header — magic, version, header
// CRC, section count — and returns the epoch and ID allocators it records, as
// a snapshot with no elements yet, and its WAL cut. It is the one reader of
// the header: decodeSnapshot and snapshotWALSeq both go through it, so no
// header field is used unchecked.
func parseSnapshotHeader(raw []byte, path string) (*graph.GraphSnapshot, uint64, error) {
	if len(raw) < snapHeaderLen || string(raw[:8]) != snapMagic {
		return nil, 0, fmt.Errorf("persist: %s: not a snapshot file", path)
	}
	if version := binary.LittleEndian.Uint32(raw[8:]); version != snapVersion {
		return nil, 0, fmt.Errorf("persist: %s: unsupported snapshot version %d", path, version)
	}
	if crc32.Checksum(raw[:snapHeaderLen-4], castagnoli) != binary.LittleEndian.Uint32(raw[snapHeaderLen-4:]) {
		return nil, 0, fmt.Errorf("persist: %s: header CRC mismatch", path)
	}
	if n := binary.LittleEndian.Uint32(raw[12:]); n != snapSections {
		return nil, 0, fmt.Errorf("persist: %s: snapshot has %d sections, want %d", path, n, snapSections)
	}
	return &graph.GraphSnapshot{
		Epoch:      binary.LittleEndian.Uint64(raw[16:]),
		NextVertex: int64(binary.LittleEndian.Uint64(raw[24:])),
		NextEdge:   int64(binary.LittleEndian.Uint64(raw[32:])),
	}, binary.LittleEndian.Uint64(raw[40:]), nil
}

// restoreSnapshot loads a decoded snapshot into an empty graph: the ID
// allocators first, then the vertices and the edges, which RestoreVertices
// and RestoreEdges refuse at or above the header's allocators.
func restoreSnapshot(g *graph.Graph, snap *graph.GraphSnapshot) error {
	g.AdvanceIDs(snap.NextVertex, snap.NextEdge)
	if err := g.RestoreVertices(snap.Vertices); err != nil {
		return err
	}
	if err := g.RestoreEdges(snap.Edges); err != nil {
		return err
	}
	g.SetEpoch(snap.Epoch)
	return nil
}

// listSnapshots returns the snapshot paths in dir, newest (highest epoch)
// first.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, snapSuffix) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	return out, nil
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
