// Package trends answers the first of NOUS's two headline query classes
// (§1.1): discovering trends in streaming data. A Table counts, per time
// bucket, the extracted facts that mention each entity and each predicate,
// and scores burstiness as the ratio of a bucket's count to the historical
// per-bucket average. Live trending, windowed trending and the entity
// sparkline are all read off that one table.
package trends

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"nous/internal/core"
	"nous/internal/graph"
	"nous/internal/graph/symtab"
	"nous/internal/temporal"
)

// Kind distinguishes what a trend is about.
type Kind string

// Trend kinds.
const (
	KindEntity    Kind = "entity"
	KindPredicate Kind = "predicate"
)

// Trend is one trending item.
type Trend struct {
	Name     string
	Kind     Kind
	Current  int     // mentions in the current window
	Baseline float64 // historical mean mentions per window
	Score    float64 // burst score: (current+s)/(baseline+s)
}

// Config tunes the table.
type Config struct {
	// Bucket is the histogram resolution (0 selects DefaultConfig's).
	Bucket time.Duration
}

// DefaultConfig buckets by week, the cadence of the paper's WSJ demo.
func DefaultConfig() Config {
	return Config{Bucket: 7 * 24 * time.Hour}
}

// smoothing is the additive constant of the burst ratio: it keeps a name
// with no history from scoring infinity. minCurrent is the fewest mentions
// a bucket needs to trend, so a lone mention is never a burst. The table
// reads minCurrent through Table.minCurrent, which tests vary.
const (
	smoothing  = 1.0
	minCurrent = 2
)

// run is one non-empty bucket of a name's histogram.
type run struct {
	bucket int64
	count  int
}

// byBucket orders a run against a bucket, for binary searches.
func byBucket(r run, b int64) int { return cmp.Compare(r.bucket, b) }

// kinds names the table's two row sets: rows[0] by entity, rows[1] by
// predicate.
var kinds = [2]Kind{KindEntity, KindPredicate}

// Table is the one trend structure: for each entity and each predicate, the
// non-empty (bucket, count) runs of the extracted, dated facts that mention
// it, in bucket order. Entities are keyed by vertex ID and predicates by
// label symbol, both dense, so a name costs one slice header plus its runs;
// names are resolved only when an answer is built.
//
// The fact log is the source: the table is seeded with every fact the KG
// holds (Seed) and subscribed to the KG (Track), so additions and
// evictions, live or replicated, move it. A reader that read the graph
// epoch before asking must see the table at or after that epoch, or the
// epoch-keyed plan-result cache would keep a stale answer. Of the two ways
// to get that — update from the graph's mutation hook, as temporal.Index
// is updated, or under core.KG's lock — the table takes the second: a KG
// listener runs under the KG's write lock, inside the writer's critical
// section, and every read here holds the read side (core.KG.ReadLocked).
// The table has no lock of its own. (The hook would also need each removed edge's endpoints, which a
// remove mutation does not carry.)
type Table struct {
	kg         *core.KG
	cfg        Config
	minCurrent int
	rows       [2][][]run // entities by graph.VertexID, predicates by symtab.SymID
}

// Track returns an empty table subscribed to kg, so every later addition
// and eviction moves it. The facts kg already holds reach it through Seed:
// the caller folds each of them in, while nothing writes kg, before the
// table is read. The pipeline does that in its one assembly pass over the
// fact log (core.KG.ScanFacts), which seeds every fold at once.
func Track(kg *core.KG, cfg Config) *Table {
	if cfg.Bucket <= 0 {
		cfg = DefaultConfig()
	}
	t := &Table{kg: kg, cfg: cfg, minCurrent: minCurrent}
	t.rows[0] = make([][]run, 0, kg.NumEntities())
	kg.Subscribe(func(ev core.Event) {
		switch ev.Kind {
		case core.FactAdded:
			t.apply(&ev.Fact, 1)
		case core.FactEvicted:
			t.apply(&ev.Fact, -1)
		}
	})
	return t
}

// Seed counts in one fact the KG held before Track subscribed the table.
// It keeps nothing of f.
func (t *Table) Seed(f *core.Fact) { t.apply(f, 1) }

// apply counts one fact in (delta 1) or out (delta -1). Only extracted facts
// with a provenance time count: curated facts are background knowledge, not
// news, and undated ones (core's rule: at or before temporal.Timeless) have
// no bucket.
func (t *Table) apply(f *core.Fact, delta int) {
	ts := f.Provenance.Time.Unix()
	if f.Curated || ts <= temporal.Timeless {
		return
	}
	b := bucketAt(t.cfg, ts)
	t.rows[0] = move(t.rows[0], int(f.Src), b, delta)
	t.rows[0] = move(t.rows[0], int(f.Dst), b, delta)
	t.rows[1] = move(t.rows[1], int(symtab.Intern(f.Predicate)), b, delta)
}

// move adds delta to rows[key]'s run at bucket b, growing rows to key and
// dropping a run whose count reaches zero.
func move(rows [][]run, key int, b int64, delta int) [][]run {
	if key >= len(rows) {
		rows = append(rows, make([][]run, key+1-len(rows))...)
	}
	runs := rows[key]
	switch i, found := slices.BinarySearchFunc(runs, b, byBucket); {
	case found:
		if runs[i].count += delta; runs[i].count == 0 {
			runs = slices.Delete(runs, i, i+1)
		}
	case delta > 0:
		runs = slices.Insert(runs, i, run{bucket: b, count: delta})
	}
	rows[key] = runs
	return rows
}

// width is the bucket width in seconds, at least 1.
func (c Config) width() int64 { return max(int64(c.Bucket/time.Second), 1) }

// bucketAt maps a unix timestamp onto a bucket index under cfg's resolution.
func bucketAt(cfg Config, sec int64) int64 {
	bucket := cfg.width()
	b := sec / bucket
	// Integer division truncates toward zero; floor it so pre-1970
	// timestamps land in the bucket containing them, not one bucket late.
	if sec%bucket != 0 && sec < 0 {
		b--
	}
	return b
}

// burstScore is the one burst formula: the smoothed ratio of a bucket's
// count to its historical baseline.
func burstScore(current int, baseline float64) float64 {
	return (float64(current) + smoothing) / (baseline + smoothing)
}

// trendLess is the canonical trend ordering: score desc, current desc, name
// asc, and an entity before a predicate of the same name.
func trendLess(a, b Trend) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Current != b.Current {
		return a.Current > b.Current
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Kind < b.Kind
}

// candidate is one key's bucket of current mentions, scored against the n
// earlier buckets holding sum mentions, before the key's name is resolved.
type candidate struct {
	kind, key, current, sum, n int
}

func (c candidate) baseline() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.sum) / float64(c.n)
}

func (c candidate) score() float64 { return burstScore(c.current, c.baseline()) }

// Trending returns the top-k bursting entities and predicates (k <= 0 keeps
// every one) of the bucket containing now. When that bucket is quiet — no
// name reaches minCurrent mentions; streams are bursty and the last bucket
// may be nearly empty — it scores the latest earlier bucket in which one
// does. Each name is scored against the mean of its earlier buckets.
func (t *Table) Trending(now time.Time, k int) []Trend {
	cur := bucketAt(t.cfg, now.Unix())
	var cs []candidate
	target := int64(math.MinInt64) // the latest active bucket so far; cs holds its keys
	t.kg.ReadLocked(func() {
		for kind, rows := range t.rows {
			for key, runs := range rows {
				i, found := slices.BinarySearchFunc(runs, cur, byBucket)
				if !found {
					i--
				}
				for ; i >= 0 && runs[i].bucket >= target; i-- {
					if runs[i].count < t.minCurrent {
						continue
					}
					if runs[i].bucket > target {
						target, cs = runs[i].bucket, cs[:0]
					}
					sum := 0
					for _, r := range runs[:i] {
						sum += r.count
					}
					cs = append(cs, candidate{kind, key, runs[i].count, sum, i})
					break
				}
			}
		}
	})
	return t.rank(cs, k)
}

// Window scores bursts inside w, history before it feeding the baselines —
// "what was trending in 2015". Only facts before w's end count: a bucket
// that straddles the end counts the facts that precede it, read off the
// temporal index. Each name's buckets that overlap w and reach minCurrent
// are scored against the mean of the name's buckets before them, and the
// best-scoring one (the earliest on a tie) stands for the name. Results are
// ordered like Trending's and truncated to k (k <= 0 keeps everything).
func (t *Table) Window(w temporal.Window, k int) []Trend {
	if w.IsEmpty() {
		return nil
	}
	width := t.cfg.width()
	// end is the bucket holding w's end: buckets before it count whole,
	// buckets after it not at all, and end itself only the facts before
	// Until, tallied per key in partial.
	end := bucketAt(t.cfg, w.Until)
	partial := [2]map[int]int{}
	var cs []candidate
	t.kg.ReadLocked(func() {
		if start := end * width; !w.IsAll() && start < w.Until {
			partial = [2]map[int]int{{}, {}}
			for _, id := range t.kg.TemporalIndex().DatedIn(temporal.Window{Since: start, Until: w.Until}) {
				t.kg.Graph().ScanEdge(id, func(e *graph.EdgeScan) {
					if !temporal.AlwaysVisible(e) {
						partial[0][int(e.Src)]++
						partial[0][int(e.Dst)]++
						partial[1][int(e.Label)]++
					}
				})
			}
		}
		for kind, rows := range t.rows {
			for key, runs := range rows {
				// One sweep in bucket order with a running sum gives each
				// bucket's baseline in O(1).
				best, found, sum := candidate{}, false, 0
				for i, r := range runs {
					current := r.count
					if !w.IsAll() && r.bucket >= end {
						if r.bucket > end {
							break
						}
						current = partial[kind][key]
					}
					// Bucket b covers [b*width, (b+1)*width): it overlaps w
					// when it starts before Until and ends after Since.
					if current >= t.minCurrent && (w.IsAll() || r.bucket*width < w.Until && (r.bucket+1)*width > w.Since) {
						c := candidate{kind, key, current, sum, i}
						if !found || c.score() > best.score() || c.score() == best.score() && c.current > best.current {
							best, found = c, true
						}
					}
					sum += current
				}
				if found {
					cs = append(cs, best)
				}
			}
		}
	})
	return t.rank(cs, k)
}

// rank resolves the candidates' names, orders them and keeps the top k
// (k <= 0 keeps all). Names are resolved before sorting because trendLess
// breaks ties by name, and outside the KG lock, as EntityName takes it.
func (t *Table) rank(cs []candidate, k int) []Trend {
	if len(cs) == 0 {
		return nil
	}
	out := make([]Trend, len(cs))
	for i, c := range cs {
		name := symtab.Resolve(symtab.SymID(c.key))
		if c.kind == 0 {
			name, _ = t.kg.EntityName(graph.VertexID(c.key))
		}
		out[i] = Trend{Name: name, Kind: kinds[c.kind], Current: c.current, Baseline: c.baseline(), Score: c.score()}
	}
	sort.Slice(out, func(i, j int) bool { return trendLess(out[i], out[j]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Series returns the activity of the n buckets ending at the one containing
// now — the sparkline behind Fig 6's entity view: the entity's mentions plus
// those of a predicate spelled name, so an entity and a predicate that share
// a name share a sparkline. A negative entity counts nothing; a non-positive
// n returns nil.
func (t *Table) Series(entity graph.VertexID, name string, now time.Time, n int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	first := bucketAt(t.cfg, now.Unix()) - int64(n-1)
	keys := [2]int{int(entity), -1}
	if pred, ok := symtab.Lookup(name); ok {
		keys[1] = int(pred)
	}
	t.kg.ReadLocked(func() {
		for kind, key := range keys {
			if key < 0 || key >= len(t.rows[kind]) {
				continue
			}
			runs := t.rows[kind][key]
			i, _ := slices.BinarySearchFunc(runs, first, byBucket)
			for ; i < len(runs) && runs[i].bucket-first < int64(n); i++ {
				out[runs[i].bucket-first] += runs[i].count
			}
		}
	})
	return out
}
