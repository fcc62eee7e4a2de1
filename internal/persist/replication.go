package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nous/internal/graph"
)

// Replication exports
//
// A replication leader streams its WAL to followers: the on-disk record
// framing (length + CRC-32C + payload, wal.go) doubles as the wire framing,
// and the follower applies decoded records through graph.ApplyReplicated,
// as WAL replay does. This file exports the pieces internal/repl needs
// beside the frame codec (AppendFrame, ReadFrame in wal.go): a disk-tailing
// cursor over the store's segments, payload helpers (epoch peek, decode),
// and snapshot discovery/restore for follower bootstrap.

// ErrCaughtUp is returned by WALCursor.Next at the live segment's current
// end: every durable record has been consumed. The caller syncs the store
// (to flush group-commit buffers) and polls again.
var ErrCaughtUp = errors.New("persist: WAL cursor caught up")

// ErrSegmentGap is returned by WALCursor.Next when the next segment in
// sequence has been pruned from under the cursor. The records it missed are
// covered by every retained snapshot (that is what makes pruning legal), so
// the stream must end and the consumer reconnect: the leader's floor check
// then decides between resuming and re-bootstrapping.
var ErrSegmentGap = errors.New("persist: WAL segment pruned under cursor")

// Dir returns the directory the store persists into.
func (st *Store) Dir() string { return st.dir }

// RecordEpoch peeks the epoch stamp of an encoded record without a full
// decode; every payload starts with its kind byte and epoch uvarint.
func RecordEpoch(payload []byte) (uint64, error) {
	if len(payload) < 2 {
		return 0, fmt.Errorf("persist: record too short for an epoch stamp")
	}
	e, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, fmt.Errorf("persist: malformed epoch stamp")
	}
	return e, nil
}

// DecodeRecord parses one WAL record payload into the mutation it logs.
func DecodeRecord(payload []byte) (graph.Mutation, error) {
	return decodeMutation(payload)
}

// WALCursor reads a store's WAL segments from disk as one continuous record
// stream, tailing the live segment. It is a read-only observer: it opens
// segment files independently of the store's writer, so a cursor per
// follower costs the leader nothing on the write path.
//
// A segment is considered finished only when a later segment exists — the
// store flushes a retiring segment before creating its successor
// (Checkpoint), so "clean end + later segment" proves completeness. A short
// or CRC-invalid frame on the newest segment is an in-flight group commit,
// reported as ErrCaughtUp and re-read on the next call.
type WALCursor struct {
	dir     string
	seq     uint64
	off     int64
	f       *os.File
	started bool
}

// OpenWALCursor positions a cursor at the oldest retained WAL segment in
// dir. Records the consumer already holds are skipped by the caller via
// their epoch stamps.
func OpenWALCursor(dir string) (*WALCursor, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	return &WALCursor{dir: dir}, nil
}

// Close releases the cursor's open segment.
func (c *WALCursor) Close() error {
	if c.f != nil {
		err := c.f.Close()
		c.f = nil
		return err
	}
	return nil
}

// Next returns the next record payload, ErrCaughtUp at the live tail, or
// ErrSegmentGap when pruning removed the next segment in sequence.
func (c *WALCursor) Next() ([]byte, error) {
	for {
		if c.f == nil {
			if err := c.open(); err != nil {
				return nil, err
			}
		}
		// A frame that does not parse here is the segment's tail: on the
		// live segment an in-flight group commit that a later read resolves,
		// on a finished one the end that sends the cursor to the next.
		payload, err := ReadFrame(io.NewSectionReader(c.f, c.off, 8+maxRecordSize))
		if err == nil {
			c.off += int64(8 + len(payload))
			return payload, nil
		}
		if !frameEnds(err) {
			return nil, err
		}
		next, ok, err := c.nextSeq()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, ErrCaughtUp // live tail: poll again after a store sync
		}
		c.Close()
		if next != c.seq+1 {
			return nil, ErrSegmentGap
		}
		c.seq = next
	}
}

// open attaches the cursor to segment c.seq (or, on first use, the oldest
// segment present). A segment whose header is not yet fully on disk is
// reported as ErrCaughtUp: createWAL syncs the header before any record, so
// this only happens in the creation window.
func (c *WALCursor) open() error {
	seqs, err := listWALSeqs(c.dir)
	if err != nil {
		return err
	}
	pick, ok := smallestAtLeast(seqs, c.seq)
	if !ok {
		return ErrCaughtUp // no segment yet (store still opening)
	}
	if c.started && pick != c.seq {
		return ErrSegmentGap
	}
	f, err := os.Open(filepath.Join(c.dir, walName(pick)))
	if err != nil {
		if os.IsNotExist(err) {
			return ErrCaughtUp // listed then pruned/renamed; re-list next call
		}
		return err
	}
	head := make([]byte, walHeaderSize)
	if _, err := io.ReadFull(f, head); err != nil {
		f.Close()
		return ErrCaughtUp // header mid-write
	}
	if string(head[:8]) != walMagic {
		f.Close()
		return fmt.Errorf("persist: %s: not a WAL segment", walName(pick))
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != walVersion {
		f.Close()
		return fmt.Errorf("persist: %s: unsupported WAL version %d", walName(pick), v)
	}
	c.f, c.seq, c.off, c.started = f, pick, walHeaderSize, true
	return nil
}

// nextSeq reports the smallest on-disk segment sequence greater than the
// cursor's current one.
func (c *WALCursor) nextSeq() (uint64, bool, error) {
	seqs, err := listWALSeqs(c.dir)
	if err != nil {
		return 0, false, err
	}
	next, ok := smallestAtLeast(seqs, c.seq+1)
	return next, ok, nil
}

// listWALSeqs returns the segment sequence numbers present in dir,
// ascending.
func listWALSeqs(dir string) ([]uint64, error) {
	paths, err := listWALs(dir)
	if err != nil {
		return nil, err
	}
	seqs := make([]uint64, 0, len(paths))
	for _, p := range paths {
		if seq, ok := parseWALSeq(p); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func smallestAtLeast(seqs []uint64, min uint64) (uint64, bool) {
	for _, s := range seqs {
		if s >= min {
			return s, true
		}
	}
	return 0, false
}

// --- Snapshot discovery and follower restore -------------------------------

// parseSnapEpoch extracts the epoch from a snapshot file name
// (snap-%016x.snap — the name snapName writes).
func parseSnapEpoch(path string) (uint64, bool) {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	var epoch uint64
	_, err := fmt.Sscanf(name, "snap-%016x"+snapSuffix, &epoch)
	return epoch, err == nil
}

// NewestSnapshot returns the path and epoch of the newest snapshot in dir;
// ok is false when none exists.
func NewestSnapshot(dir string) (path string, epoch uint64, ok bool, err error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return "", 0, false, err
	}
	for _, p := range snaps { // newest first
		if e, pok := parseSnapEpoch(p); pok {
			return p, e, true, nil
		}
	}
	return "", 0, false, nil
}

// FloorEpoch returns the oldest retained snapshot's epoch — the resume
// floor for WAL streaming. Every record in a pruned segment has an epoch at
// or below this floor, so a consumer whose applied epoch is >= the floor
// loses nothing to pruning; one below it must re-bootstrap. 0 (with ok
// false) means nothing has been pruned under any snapshot yet and streams
// may start from epoch 0.
func FloorEpoch(dir string) (epoch uint64, ok bool, err error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, false, err
	}
	for i := len(snaps) - 1; i >= 0; i-- { // oldest last
		if e, pok := parseSnapEpoch(snaps[i]); pok {
			return e, true, nil
		}
	}
	return 0, false, nil
}

// RestoreSnapshotBytes decodes an in-memory snapshot image (as fetched from
// a leader) and loads it into an empty graph via the parallel bulk-restore
// paths. It returns the snapshot's epoch.
func RestoreSnapshotBytes(g *graph.Graph, raw []byte) (uint64, error) {
	snap, _, err := decodeSnapshot(raw, "snapshot stream")
	if err != nil {
		return 0, err
	}
	if err := restoreSnapshot(g, snap); err != nil {
		return 0, err
	}
	return snap.Epoch, nil
}
