package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"nous/internal/core"
	"nous/internal/graph"
	"nous/internal/persist"
)

// Status is a point-in-time view of a follower's replication state.
type Status struct {
	// LeaderURL is the base URL of the leader being followed.
	LeaderURL string `json:"leader_url"`
	// LeaderEpoch is the newest epoch the leader has reported (via data
	// records or heartbeats).
	LeaderEpoch uint64 `json:"leader_epoch"`
	// AppliedEpoch is the newest epoch applied locally.
	AppliedEpoch uint64 `json:"applied_epoch"`
	// Lag is LeaderEpoch - AppliedEpoch: the number of leader mutations not
	// yet applied here.
	Lag uint64 `json:"lag"`
	// Connected reports whether a WAL stream is currently open.
	Connected bool `json:"connected"`
	// Reconnects counts stream re-establishments after the first.
	Reconnects uint64 `json:"reconnects"`
	// LastError is the most recent stream error, empty when healthy.
	LastError string `json:"last_error,omitempty"`
}

// Follower bootstraps a KG from a leader's snapshot and keeps it converged
// by tailing the leader's WAL. The follower's KG is in-memory: a restart
// re-bootstraps from the leader rather than from local disk.
type Follower struct {
	url    string
	kg     *core.KG
	client *http.Client

	// MinBackoff and MaxBackoff bound the exponential reconnect delay.
	MinBackoff time.Duration
	MaxBackoff time.Duration

	// OnApply, when set before Start, is invoked after each replicated
	// mutation is applied (outside the KG lock). Derived state does not
	// need it — KG listeners see replicated facts as they would on the
	// leader — so it is an observation seam for tests.
	OnApply func(m graph.Mutation)

	mu     sync.Mutex
	st     Status
	cancel context.CancelFunc
	done   chan struct{}
}

// NewFollower builds a follower applying the leader's stream to kg. The URL
// is the leader server's base, e.g. "http://leader:8080".
func NewFollower(leaderURL string, kg *core.KG) *Follower {
	return &Follower{
		url:        leaderURL,
		kg:         kg,
		client:     &http.Client{},
		MinBackoff: 100 * time.Millisecond,
		MaxBackoff: 5 * time.Second,
	}
}

// Status returns the follower's current replication state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.st
	st.LeaderURL = f.url
	if st.LeaderEpoch > st.AppliedEpoch {
		st.Lag = st.LeaderEpoch - st.AppliedEpoch
	} else {
		st.Lag = 0
	}
	return st
}

// Bootstrap downloads the leader's newest snapshot, restores it through the
// bulk-restore paths and rebuilds the KG's index layer. The KG must be
// fresh. After Bootstrap the follower's applied epoch is the snapshot's.
func (f *Follower) Bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/api/v1/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: snapshot fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot fetch: leader returned %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("repl: snapshot download: %w", err)
	}
	epoch, err := persist.RestoreSnapshotBytes(f.kg.Graph(), raw)
	if err != nil {
		return err
	}
	if err := f.kg.Rebuild(); err != nil {
		return err
	}
	f.mu.Lock()
	f.st.AppliedEpoch = epoch
	if epoch > f.st.LeaderEpoch {
		f.st.LeaderEpoch = epoch
	}
	f.mu.Unlock()
	return nil
}

// Start launches the tailing loop in a goroutine. Close stops it.
func (f *Follower) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.done = make(chan struct{})
	go f.run(ctx)
}

// Close stops the tailing loop and waits for it to exit.
func (f *Follower) Close() {
	if f.cancel != nil {
		f.cancel()
		<-f.done
		f.cancel = nil
	}
}

// run is the reconnect loop: tail until the stream breaks, back off
// exponentially (reset after any productive stream), repeat.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	backoff := f.MinBackoff
	for ctx.Err() == nil {
		n, err := f.tail(ctx)
		f.mu.Lock()
		f.st.Connected = false
		if err != nil && ctx.Err() == nil {
			f.st.LastError = err.Error()
		}
		f.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		if n > 0 {
			backoff = f.MinBackoff
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.MaxBackoff {
			backoff = f.MaxBackoff
		}
		f.mu.Lock()
		f.st.Reconnects++
		f.mu.Unlock()
	}
}

// tail opens one WAL stream from the current applied epoch and applies
// frames until the stream ends, returning how many records it applied.
func (f *Follower) tail(ctx context.Context) (int, error) {
	f.mu.Lock()
	from := f.st.AppliedEpoch
	f.mu.Unlock()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/v1/wal?from=%d", f.url, from), nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// Our resume point predates the leader's retained WAL. A follower
		// that never applied anything can bootstrap from a snapshot; one
		// with live state cannot safely re-seed in place, so it reports the
		// condition and keeps retrying (the gap may close if the leader's
		// floor was transientively wrong, and the operator can restart the
		// follower to force a fresh bootstrap).
		if f.kg.NumEntities() == 0 && from == 0 {
			if err := f.Bootstrap(ctx); err != nil {
				return 0, err
			}
			return 1, nil // made progress: run resets the backoff and reconnects after MinBackoff
		}
		return 0, fmt.Errorf("repl: leader pruned past our applied epoch %d; restart follower to re-bootstrap", from)
	default:
		return 0, fmt.Errorf("repl: wal stream: leader returned %s", resp.Status)
	}

	f.mu.Lock()
	f.st.Connected = true
	f.st.LastError = ""
	f.mu.Unlock()

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	applied := 0
	for {
		// Unlike the disk tail, a frame cut short or failing its CRC means
		// the connection broke: the error ends the stream and run
		// reconnects.
		payload, err := persist.ReadFrame(br)
		if err != nil {
			if err == io.EOF || ctx.Err() != nil {
				return applied, nil // clean end of stream
			}
			return applied, err
		}
		if epoch, ok := isProgress(payload); ok {
			f.mu.Lock()
			if epoch > f.st.LeaderEpoch {
				f.st.LeaderEpoch = epoch
			}
			f.mu.Unlock()
			continue
		}
		m, err := persist.DecodeRecord(payload)
		if err != nil {
			return applied, err
		}
		if err := f.kg.ApplyReplicated(m); err != nil {
			return applied, err
		}
		applied++
		f.mu.Lock()
		if m.Epoch > f.st.AppliedEpoch {
			f.st.AppliedEpoch = m.Epoch
		}
		if m.Epoch > f.st.LeaderEpoch {
			f.st.LeaderEpoch = m.Epoch
		}
		f.mu.Unlock()
		if f.OnApply != nil {
			f.OnApply(m)
		}
	}
}
