package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"nous/internal/graph"
)

// WAL segment layout (version 3):
//
//	magic   [8]byte  "NOUSWAL1"
//	version uint32   3
//	seq     uint64   segment sequence number
//	then records, back to back:
//	  length uint32  payload byte count
//	  crc    uint32  CRC-32C (Castagnoli) of the payload
//	  payload        one encoded mutation (see record.go)
//
// A record is valid only if its frame fits the file and its CRC matches. The
// first invalid record ends the segment: a torn or bit-flipped tail loses at
// most that final write, and recovery truncates the segment back to its last
// valid record so the damage cannot be misread later. The same frame carries
// a record over the replication wire (internal/repl), and ReadFrame parses it
// for replay, for the WAL cursor and for the follower.
//
// Version 3 is the only version written and the only one read. Its AddVertex
// record carries the vertex row (label, name, aliases), and a relabel and an
// appended alias are records of their own, where version 2 carried a vertex's
// (key, value) property list and a generic property-set record; version 2
// already carried each edge's fact row field by field. A segment of another
// version is refused.

const (
	walMagic      = "NOUSWAL1"
	walVersion    = 3
	walSuffix     = ".wal"
	walHeaderSize = 8 + 4 + 8
	// maxRecordSize bounds a single record so a corrupt length field cannot
	// drive a multi-gigabyte allocation during replay.
	maxRecordSize = 64 << 20
)

// ErrBadFrame is returned by ReadFrame for a frame whose length exceeds the
// record cap or whose payload fails its CRC.
var ErrBadFrame = errors.New("persist: bad WAL frame")

// AppendFrame appends one record to dst in the WAL's framing:
// length uint32 LE, CRC-32C uint32 LE, payload.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// ReadFrame reads one frame that AppendFrame wrote and returns its payload.
// It returns io.EOF at a clean end (r holds no byte of a further frame),
// io.ErrUnexpectedEOF when the frame is cut short, and ErrBadFrame for an
// implausible length or a CRC mismatch. Any other error is r's own.
func ReadFrame(r io.Reader) ([]byte, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(head[0:])
	if n > maxRecordSize {
		return nil, ErrBadFrame
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(head[4:]) {
		return nil, ErrBadFrame
	}
	return payload, nil
}

// frameEnds reports whether a ReadFrame error means that no valid frame
// starts at the reader's offset: a clean end, a frame cut short or a bad
// one. Any other error is an I/O failure.
func frameEnds(err error) bool {
	return err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrBadFrame)
}

func walName(seq uint64) string { return fmt.Sprintf("wal-%016x%s", seq, walSuffix) }

// parseWALSeq extracts the sequence number from a segment file name.
func parseWALSeq(path string) (uint64, bool) {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(name, "wal-%016x"+walSuffix, &seq)
	return seq, err == nil
}

// listWALs returns the WAL segment paths in dir in ascending sequence order.
func listWALs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if _, ok := parseWALSeq(e.Name()); ok {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out) // zero-padded hex: lexicographic == numeric
	return out, nil
}

// walWriter appends CRC-framed records to one segment with group-commit
// buffering: records accumulate in memory and are written + fsynced once the
// buffer passes the group-commit threshold (or on an explicit Flush), so a
// burst of batch-ingest records costs one fsync, not one per record.
type walWriter struct {
	mu        sync.Mutex
	f         *os.File
	seq       uint64
	pending   []byte // framed records not yet written to the file
	threshold int    // group-commit byte threshold
	records   uint64 // records appended to this segment
	size      int64  // bytes this segment will occupy once flushed
}

// createWAL starts a fresh segment in dir with the given sequence number.
// The header is written and synced immediately so the segment is
// recognizable even if the process dies before the first commit.
func createWAL(dir string, seq uint64, threshold int) (*walWriter, error) {
	path := filepath.Join(dir, walName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	head := make([]byte, 0, walHeaderSize)
	head = append(head, walMagic...)
	head = binary.LittleEndian.AppendUint32(head, walVersion)
	head = binary.LittleEndian.AppendUint64(head, seq)
	if _, err := f.Write(head); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	if threshold <= 0 {
		threshold = 1 // flush every record
	}
	return &walWriter{f: f, seq: seq, threshold: threshold, size: walHeaderSize}, nil
}

// Append frames one record payload and commits the buffer if it crossed the
// group-commit threshold. It returns the segment's size including everything
// buffered, which the store compares against the checkpoint budget.
func (w *walWriter) Append(payload []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = AppendFrame(w.pending, payload)
	w.records++
	w.size += int64(len(payload) + 8)
	if len(w.pending) >= w.threshold {
		if err := w.flushLocked(); err != nil {
			return w.size, err
		}
	}
	return w.size, nil
}

// Flush writes and fsyncs everything buffered.
func (w *walWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *walWriter) flushLocked() error {
	if len(w.pending) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.pending); err != nil {
		return err
	}
	w.pending = w.pending[:0]
	return w.f.Sync()
}

// Close flushes and closes the segment.
func (w *walWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.flushLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns the segment's record count and size (including buffered
// bytes).
func (w *walWriter) Stats() (records uint64, size int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.size
}

// replayWAL applies every valid record of one segment to the graph through
// graph.ApplyReplicated, the path a replica applies its leader's stream
// with. It returns the number of records read and the highest epoch stamp
// among them, applied or skipped as already present. On a torn or corrupt
// tail the segment is truncated back to its last valid record; only a
// malformed-but-CRC-valid record (real corruption of logic, not of storage)
// aborts recovery with an error.
//
// Records are applied in append order, which is epoch order: the store
// appends from the graph's mutation hook, under the graph's write lock.
func replayWAL(g *graph.Graph, path string) (applied int, maxEpoch uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var head [walHeaderSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil || string(head[:8]) != walMagic {
		return 0, 0, fmt.Errorf("persist: %s: not a WAL segment", path)
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != walVersion {
		return 0, 0, fmt.Errorf("persist: %s: unsupported WAL version %d", path, v)
	}
	off := int64(walHeaderSize)
	for {
		payload, err := ReadFrame(r)
		if frameEnds(err) {
			if err != io.EOF {
				truncateWAL(path, off)
			}
			return applied, maxEpoch, nil
		}
		if err != nil {
			return applied, maxEpoch, fmt.Errorf("persist: %s: %w", path, err)
		}
		m, err := decodeMutation(payload)
		if err == nil {
			err = g.ApplyReplicated(m)
		}
		if err != nil {
			return applied, maxEpoch, fmt.Errorf("persist: %s: record %d: %w", path, applied, err)
		}
		maxEpoch = max(maxEpoch, m.Epoch)
		applied++
		off += int64(8 + len(payload))
	}
}

// truncateWAL cuts a segment back to size, discarding a torn tail. Failure
// to truncate is not fatal — replay stops at the tear either way — but a
// successful truncation keeps the damage from being re-scanned (or worse,
// extended) later.
func truncateWAL(path string, size int64) {
	_ = os.Truncate(path, size)
}
