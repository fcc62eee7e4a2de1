package analytics

import (
	"container/list"
	"sync"
)

// ResultMemoStats snapshots a ResultMemo's counters.
type ResultMemoStats struct {
	// Hits counts lookups served from a fresh cached value.
	Hits uint64
	// Misses counts lookups that ran compute.
	Misses uint64
	// Coalesced counts lookups served by waiting on another caller's
	// in-flight compute instead of running their own (singleflight).
	Coalesced uint64
	// Evictions counts LRU evictions at the entry cap.
	Evictions uint64
	// Entries is the current number of cached values.
	Entries int
}

// rmEntry is one cached value: the epoch it is exact at, its LRU position
// and its singleflight channel (non-nil while one goroutine computes it).
type rmEntry[V any] struct {
	epoch  uint64
	valid  bool
	value  V
	flight chan struct{}
	elem   *list.Element // value: the key
}

// ResultMemo is this package's one memo: bounded, keyed, epoch-aware, with
// singleflight. Every whole-graph artifact is one — the compiled view,
// PageRank per time window, the popularity prior and the topic model here,
// and the plan layer's results keyed by normalized plan strings.
//
// A value is stored with the epoch it is exact at, which its compute
// reports. A lookup at epoch now is served by a value stored at now or
// later; anything older recomputes in place. The memo has no staleness
// budget: a caller that can tolerate lag asks for an older epoch. Entries
// beyond the cap evict least-recently-used. Failed computes are never
// cached. All methods are safe for concurrent use.
//
// It is generic so this package — which must not import its consumers — can
// host the cache for any layer above it.
type ResultMemo[K comparable, V any] struct {
	mu         sync.Mutex
	maxEntries int
	entries    map[K]*rmEntry[V]
	lru        *list.List // of keys; front = most recently used

	hits, misses, coalesced, evictions uint64
}

// NewResultMemo returns a memo holding at most maxEntries values.
func NewResultMemo[K comparable, V any](maxEntries int) *ResultMemo[K, V] {
	return &ResultMemo[K, V]{
		maxEntries: maxEntries,
		entries:    make(map[K]*rmEntry[V]),
		lru:        list.New(),
	}
}

// Get returns the value for key fresh at epoch now, computing it at most once
// across concurrent callers. compute returns the value and the epoch it is
// exact at (at least now, when it reads the live graph). hit reports whether
// a cached (or coalesced in-flight) value was served without this caller
// computing. Errors propagate to the caller that computed and are not
// cached; waiters observing a failed flight retry the compute themselves.
func (m *ResultMemo[K, V]) Get(now uint64, key K, compute func() (V, uint64, error)) (v V, hit bool, err error) {
	m.mu.Lock()
	waited := false
	for {
		e := m.entries[key]
		if e == nil {
			break
		}
		if e.valid && e.epoch >= now {
			m.lru.MoveToFront(e.elem)
			if waited {
				m.coalesced++
			} else {
				m.hits++
			}
			v = e.value
			m.mu.Unlock()
			return v, true, nil
		}
		if e.flight == nil {
			break
		}
		ch := e.flight
		m.mu.Unlock()
		<-ch
		waited = true
		m.mu.Lock()
	}

	e := m.entries[key]
	if e == nil {
		e = &rmEntry[V]{}
		e.elem = m.lru.PushFront(key)
		m.entries[key] = e
		m.evictLocked()
	} else {
		m.lru.MoveToFront(e.elem)
	}
	ch := make(chan struct{})
	e.flight = ch
	m.misses++
	m.mu.Unlock()

	var at uint64
	ok := false
	defer func() {
		// Release waiters even if compute panicked; store only on success,
		// and never over a value exact at a later epoch.
		m.mu.Lock()
		if ok && (!e.valid || e.epoch <= at) {
			e.value, e.epoch, e.valid = v, at, true
		}
		e.flight = nil
		close(ch)
		m.mu.Unlock()
	}()
	v, at, err = compute()
	ok = err == nil
	return v, false, err
}

// Peek returns the value for key if one fresh at epoch now is cached,
// without touching LRU order or counters.
func (m *ResultMemo[K, V]) Peek(now uint64, key K) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[key]; e != nil && e.valid && e.epoch >= now {
		return e.value, true
	}
	return v, false
}

// evictLocked drops least-recently-used entries beyond the cap. Entries with
// a compute in flight are skipped — evicting one would orphan its waiters'
// singleflight — so the map can transiently exceed the cap by the number of
// concurrent flights.
func (m *ResultMemo[K, V]) evictLocked() {
	for el := m.lru.Back(); el != nil && m.lru.Len() > m.maxEntries; {
		prev := el.Prev()
		key := el.Value.(K)
		if e := m.entries[key]; e != nil && e.flight == nil {
			m.lru.Remove(el)
			delete(m.entries, key)
			m.evictions++
		}
		el = prev
	}
}

// Stats snapshots the memo's counters.
func (m *ResultMemo[K, V]) Stats() ResultMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ResultMemoStats{
		Hits:      m.hits,
		Misses:    m.misses,
		Coalesced: m.coalesced,
		Evictions: m.evictions,
		Entries:   len(m.entries),
	}
}
