package persist

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nous/internal/graph"
)

// Options tunes a Store. The zero value is usable; DefaultOptions documents
// the effective defaults.
type Options struct {
	// GroupCommitBytes is the WAL group-commit threshold: appended records
	// buffer in memory until this many bytes accumulate, then are written
	// and fsynced together. 0 uses the default (64 KiB); a negative value
	// commits every record individually (slow, maximally durable).
	GroupCommitBytes int
	// FlushInterval bounds how long a buffered record can wait for the
	// group-commit threshold: the background flusher commits the buffer at
	// this cadence regardless of size. <= 0 defaults to 200ms.
	FlushInterval time.Duration
	// WALSizeBudget triggers an automatic checkpoint (snapshot + WAL
	// truncation) once the live segment exceeds this many bytes.
	// <= 0 defaults to 8 MiB.
	WALSizeBudget int64
	// DisableAutoCheckpoint turns the background checkpointer off; only
	// explicit Checkpoint calls roll snapshots.
	DisableAutoCheckpoint bool
	// RetainSnapshots is how many snapshot generations to keep (the newest
	// is the recovery source; older ones are fallbacks if it is damaged).
	// <= 0 defaults to 2.
	RetainSnapshots int
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{
		GroupCommitBytes: 64 << 10,
		FlushInterval:    200 * time.Millisecond,
		WALSizeBudget:    8 << 20,
		RetainSnapshots:  2,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.GroupCommitBytes == 0 {
		o.GroupCommitBytes = d.GroupCommitBytes
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = d.FlushInterval
	}
	if o.WALSizeBudget <= 0 {
		o.WALSizeBudget = d.WALSizeBudget
	}
	if o.RetainSnapshots <= 0 {
		o.RetainSnapshots = d.RetainSnapshots
	}
	return o
}

// Stats describes the store's durable state.
type Stats struct {
	// SnapshotEpoch is the graph epoch of the newest on-disk snapshot
	// (0 when no snapshot has been written yet).
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	// WALSeq is the live segment's sequence number.
	WALSeq uint64 `json:"wal_seq"`
	// WALRecords / WALBytes measure the live segment, buffered bytes
	// included.
	WALRecords uint64 `json:"wal_records"`
	WALBytes   int64  `json:"wal_bytes"`
	// Checkpoints counts snapshots rolled by this Store instance.
	Checkpoints uint64 `json:"checkpoints"`
	// ReplayedRecords counts WAL records applied during Open's recovery.
	ReplayedRecords int `json:"replayed_records"`
	// LastError surfaces the most recent background persistence failure.
	LastError string `json:"last_error,omitempty"`
}

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("persist: store is closed")

// Store makes one graph durable under a directory. Open recovers the graph
// from disk (snapshot + WAL tail), then subscribes to the graph's mutation
// hook so every subsequent write is logged. All methods are safe for
// concurrent use.
type Store struct {
	dir string
	g   *graph.Graph
	opt Options

	// mu serializes checkpoints and close against each other. It is NOT
	// held while mutations append, so a checkpoint's snapshot encoding
	// never stalls ingestion.
	mu sync.Mutex

	// walMu guards the live segment pointer: appenders take it shared,
	// rotation takes it exclusive.
	walMu sync.RWMutex
	wal   *walWriter
	seq   uint64

	snapEpoch   atomic.Uint64
	checkpoints atomic.Uint64
	replayed    int
	closed      atomic.Bool
	detach      func() // removes onMutation from the graph's hooks

	errMu   sync.Mutex
	lastErr error

	checkpointC chan struct{}
	stop        chan struct{}
	wg          sync.WaitGroup
}

// Open attaches durable storage at dir to g: it restores the newest valid
// snapshot, replays the WAL tail on top (truncating a torn final record),
// starts a fresh WAL segment (in place of an empty newest one), installs
// the mutation hook and (unless disabled) a background group-commit
// flusher + size-budget checkpointer.
//
// The graph must be empty and not yet mutating; Open is the first thing that
// writes it. Replay applies records through graph.ApplyReplicated, so hooks
// already attached to g (a temporal index) see the replayed mutations; the
// store's own hook is installed only after replay.
func Open(dir string, g *graph.Graph, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{
		dir:         dir,
		g:           g,
		opt:         opt,
		checkpointC: make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}

	// 1. Newest fully-valid snapshot. A snapshot is decoded (and CRC-checked)
	// entirely in memory before any of it touches the graph, so a damaged
	// newest snapshot falls back to an older generation cleanly. If
	// snapshots exist but none is readable, refuse to open: proceeding
	// would replay only the post-cut WAL tail onto an empty graph and
	// present a silently gutted store (which callers would then mistake
	// for a fresh directory and reseed over).
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	var walStart uint64
	loaded := false
	var lastSnapErr error
	for _, path := range snaps {
		snap, seq, rerr := readSnapshot(path)
		if rerr != nil {
			lastSnapErr = rerr
			continue // fall back to the previous generation
		}
		if rerr := restoreSnapshot(g, snap); rerr != nil {
			return nil, fmt.Errorf("persist: restoring %s: %w", path, rerr)
		}
		st.snapEpoch.Store(snap.Epoch)
		walStart = seq
		loaded = true
		break
	}
	if !loaded && len(snaps) > 0 {
		return nil, fmt.Errorf("persist: %s: no readable snapshot among %d candidates: %w",
			dir, len(snaps), lastSnapErr)
	}

	// 2. Replay the WAL tail. Segments older than the snapshot's cut are
	// fully covered by it and skipped. A record skipped as already present
	// commits nothing and so adopts no epoch; maxEpoch covers its stamp.
	wals, err := listWALs(dir)
	if err != nil {
		return nil, err
	}
	maxEpoch := st.snapEpoch.Load()
	var maxSeq uint64
	for _, path := range wals {
		seq, _ := parseWALSeq(path)
		if seq > maxSeq {
			maxSeq = seq
		}
		if seq < walStart {
			continue
		}
		applied, epoch, rerr := replayWAL(g, path)
		if rerr != nil {
			return nil, rerr
		}
		st.replayed += applied
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
	}
	g.SetEpoch(maxEpoch)

	// 3. Fresh live segment (never append to a recovered one: its tail may
	// have been truncated, and a clean boundary keeps recovery simple). Its
	// sequence must exceed every segment that holds records and reach the
	// loaded snapshot's cut, or the next recovery would skip it. A newest
	// segment at or above the cut that holds only its header (an idle
	// open's) is removed and its sequence reused, so reopens do not pile up
	// empty segments and the sequence stays contiguous for a WALCursor.
	st.seq = max(maxSeq+1, walStart+1)
	if len(wals) == 0 && len(snaps) == 0 {
		st.seq = 0
	} else if len(wals) > 0 && maxSeq >= walStart {
		newest := wals[len(wals)-1]
		if fi, err := os.Stat(newest); err == nil && fi.Size() == walHeaderSize {
			if err := os.Remove(newest); err != nil {
				return nil, err
			}
			st.seq = maxSeq
		}
	}
	st.wal, err = createWAL(dir, st.seq, opt.GroupCommitBytes)
	if err != nil {
		return nil, err
	}

	// 4. Subscribe to mutations and start the background loop.
	st.detach = g.AddMutationHook(st.onMutation)
	st.wg.Add(1)
	go st.background()
	return st, nil
}

// onMutation is the graph's mutation hook: encode, append, and nudge the
// checkpointer if the live segment outgrew its budget.
func (st *Store) onMutation(m graph.Mutation) {
	payload := encodeMutation(m)
	st.walMu.RLock()
	w := st.wal
	size, err := w.Append(payload)
	st.walMu.RUnlock()
	if err != nil {
		st.noteErr(err)
		return
	}
	if !st.opt.DisableAutoCheckpoint && size > st.opt.WALSizeBudget {
		select {
		case st.checkpointC <- struct{}{}:
		default: // one is already queued
		}
	}
}

// background runs the group-commit flusher and the size-budget checkpointer.
func (st *Store) background() {
	defer st.wg.Done()
	ticker := time.NewTicker(st.opt.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-ticker.C:
			st.walMu.RLock()
			w := st.wal
			st.walMu.RUnlock()
			if err := w.Flush(); err != nil {
				st.noteErr(err)
			}
		case <-st.checkpointC:
			if err := st.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				st.noteErr(err)
			}
		}
	}
}

// Checkpoint rolls the durable state forward: it rotates the WAL, writes a
// snapshot of the current graph, and prunes snapshots and WAL segments the
// new snapshot supersedes. Mutations keep flowing during the snapshot write;
// anything that lands mid-checkpoint is in the new segment and replays
// idempotently on top of the snapshot.
func (st *Store) Checkpoint() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed.Load() {
		return ErrClosed
	}

	// Rotate: all appends from here land in the next segment, so every
	// record in the segments being retired is covered by the snapshot below.
	st.walMu.Lock()
	old := st.wal
	// Flush the retiring segment before the next one becomes visible: a
	// replication cursor (WALCursor) treats "clean end + a later segment
	// exists" as proof the segment is finished, so its buffered tail must
	// be on disk before the new segment's directory entry appears.
	if err := old.Flush(); err != nil {
		st.noteErr(err)
	}
	newSeq := st.seq + 1
	nw, err := createWAL(st.dir, newSeq, st.opt.GroupCommitBytes)
	if err != nil {
		st.walMu.Unlock()
		return err
	}
	st.wal = nw
	st.seq = newSeq
	st.walMu.Unlock()
	if err := old.Close(); err != nil {
		// The retired segment's buffered tail is about to be superseded by
		// the snapshot; surface the error but keep checkpointing.
		st.noteErr(err)
	}

	snap := st.g.Snapshot()
	if _, _, err := writeSnapshot(st.dir, snap, newSeq); err != nil {
		return err
	}
	st.snapEpoch.Store(snap.Epoch)
	st.checkpoints.Add(1)
	st.prune()
	return nil
}

// prune removes snapshot generations beyond the retention count and WAL
// segments older than every retained snapshot's cut.
func (st *Store) prune() {
	snaps, err := listSnapshots(st.dir)
	if err != nil {
		st.noteErr(err)
		return
	}
	if len(snaps) > st.opt.RetainSnapshots {
		for _, p := range snaps[st.opt.RetainSnapshots:] {
			if err := os.Remove(p); err != nil {
				st.noteErr(err)
			}
		}
		snaps = snaps[:st.opt.RetainSnapshots]
	}
	if len(snaps) == 0 {
		return
	}
	minSeq := uint64(1<<63 - 1)
	for _, p := range snaps {
		seq, err := snapshotWALSeq(p)
		if err != nil {
			st.noteErr(err)
			return // can't prove any segment is safe to drop
		}
		if seq < minSeq {
			minSeq = seq
		}
	}
	wals, err := listWALs(st.dir)
	if err != nil {
		st.noteErr(err)
		return
	}
	for _, p := range wals {
		if seq, ok := parseWALSeq(p); ok && seq < minSeq {
			if err := os.Remove(p); err != nil {
				st.noteErr(err)
			}
		}
	}
}

// snapshotWALSeq reads just the header of a snapshot file and returns its
// WAL cut sequence. A header that fails its checks is an error, so a
// corrupt cut never licenses deleting a WAL segment.
func snapshotWALSeq(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	head := make([]byte, snapHeaderLen)
	if _, err := f.ReadAt(head, 0); err != nil {
		return 0, fmt.Errorf("persist: %s: reading header: %w", path, err)
	}
	_, seq, err := parseSnapshotHeader(head, path)
	return seq, err
}

// Sync commits every buffered WAL record to disk.
func (st *Store) Sync() error {
	if st.closed.Load() {
		return ErrClosed
	}
	st.walMu.RLock()
	w := st.wal
	st.walMu.RUnlock()
	return w.Flush()
}

// Close detaches from the graph, stops the background loop and flushes the
// live segment. The caller must have stopped mutating the graph; writes that
// race with Close may not be logged.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed.Swap(true) {
		st.mu.Unlock()
		return nil
	}
	st.detach()
	close(st.stop)
	st.mu.Unlock()
	st.wg.Wait()
	return st.wal.Close()
}

// Stats reports the store's current durable state.
func (st *Store) Stats() Stats {
	st.walMu.RLock()
	w := st.wal
	seq := st.seq
	st.walMu.RUnlock()
	records, size := w.Stats()
	s := Stats{
		SnapshotEpoch:   st.snapEpoch.Load(),
		WALSeq:          seq,
		WALRecords:      records,
		WALBytes:        size,
		Checkpoints:     st.checkpoints.Load(),
		ReplayedRecords: st.replayed,
	}
	st.errMu.Lock()
	if st.lastErr != nil {
		s.LastError = st.lastErr.Error()
	}
	st.errMu.Unlock()
	return s
}

func (st *Store) noteErr(err error) {
	st.errMu.Lock()
	st.lastErr = err
	st.errMu.Unlock()
}
