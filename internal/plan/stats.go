package plan

import "sync"

// execStats accounts executed plans and operators across an executor's
// lifetime. All methods are safe for concurrent use.
type execStats struct {
	mu      sync.Mutex
	plans   uint64
	byClass map[string]uint64
	ops     map[Op]uint64
}

func newStats() *execStats {
	return &execStats{byClass: make(map[string]uint64), ops: make(map[Op]uint64)}
}

func (s *execStats) startPlan(class string) {
	s.mu.Lock()
	s.plans++
	s.byClass[class]++
	s.mu.Unlock()
}

func (s *execStats) countOp(op Op) {
	s.mu.Lock()
	s.ops[op]++
	s.mu.Unlock()
}

// CacheStats is a snapshot of the plan-result cache's counters.
type CacheStats struct {
	// Hits counts lookups served from a fresh cached result.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to compute.
	Misses uint64 `json:"misses"`
	// Coalesced counts lookups served by waiting on another caller's
	// in-flight compute (singleflight).
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts LRU evictions at the entry cap.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of cached results.
	Entries int `json:"entries"`
}

// Stats is a snapshot of planner activity for /api/v1/stats.
type Stats struct {
	// Plans counts executed plans.
	Plans uint64 `json:"plans"`
	// ByClass breaks executed plans down by query class.
	ByClass map[string]uint64 `json:"by_class,omitempty"`
	// Ops counts evaluated logical operators by kind.
	Ops map[string]uint64 `json:"ops,omitempty"`
	// Cache reports the plan-result cache.
	Cache *CacheStats `json:"cache,omitempty"`
}

// snapshot copies the counters.
func (s *execStats) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Plans: s.plans}
	if len(s.byClass) > 0 {
		st.ByClass = make(map[string]uint64, len(s.byClass))
		for k, v := range s.byClass {
			st.ByClass[k] = v
		}
	}
	if len(s.ops) > 0 {
		st.Ops = make(map[string]uint64, len(s.ops))
		for k, v := range s.ops {
			st.Ops[string(k)] = v
		}
	}
	return st
}
