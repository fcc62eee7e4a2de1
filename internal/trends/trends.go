// Package trends answers the first of NOUS's two headline query classes
// (§1.1): discovering trends in streaming data. A detector consumes
// fact-level events from the dynamic KG, buckets extracted-fact activity
// per entity and per predicate over time, and scores burstiness as the
// ratio of current-window activity to the historical per-bucket average.
package trends

import (
	"sort"
	"sync"
	"time"

	"nous/internal/core"
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

// Config tunes the detector.
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
// a bucket needs to trend, so a lone mention is never a burst. The live
// detector reads minCurrent through Detector.minCurrent, which tests vary.
const (
	smoothing  = 1.0
	minCurrent = 2
)

// Detector accumulates activity histograms. Wire it to a KG with
// kg.Subscribe(d.OnEvent). All methods are safe for concurrent use, so
// trend queries can run while ingestion streams events in.
type Detector struct {
	mu         sync.RWMutex
	cfg        Config
	minCurrent int
	// counts[kind][name][bucket] = mentions
	entityCounts map[string]map[int64]int
	predCounts   map[string]map[int64]int
}

// NewDetector returns an empty detector.
func NewDetector(cfg Config) *Detector {
	if cfg.Bucket <= 0 {
		cfg = DefaultConfig()
	}
	return &Detector{
		cfg:          cfg,
		minCurrent:   minCurrent,
		entityCounts: make(map[string]map[int64]int),
		predCounts:   make(map[string]map[int64]int),
	}
}

// OnEvent consumes a KG fact event. Only extracted (non-curated) additions
// count toward trends: curated facts are background knowledge, not news.
func (d *Detector) OnEvent(ev core.Event) {
	if ev.Kind != core.FactAdded || ev.Fact.Curated {
		return
	}
	t := ev.Fact.Provenance.Time
	if t.IsZero() {
		return
	}
	b := d.bucketOf(t)
	d.mu.Lock()
	bump(d.entityCounts, ev.Fact.Subject, b)
	bump(d.entityCounts, ev.Fact.Object, b)
	bump(d.predCounts, ev.Fact.Predicate, b)
	d.mu.Unlock()
}

// Config returns the detector's configuration (immutable after NewDetector),
// so windowed backfill scans can bucket with the live detector's resolution.
func (d *Detector) Config() Config { return d.cfg }

func (d *Detector) bucketOf(t time.Time) int64 {
	return bucketAt(d.cfg, t.Unix())
}

// bucketAt maps a unix timestamp onto a bucket index under cfg's resolution.
func bucketAt(cfg Config, sec int64) int64 {
	bucket := int64(cfg.Bucket / time.Second)
	if bucket <= 0 {
		bucket = 1
	}
	b := sec / bucket
	// Integer division truncates toward zero; floor it so pre-1970
	// timestamps land in the bucket containing them, not one bucket late.
	if sec%bucket != 0 && sec < 0 {
		b--
	}
	return b
}

func bump(m map[string]map[int64]int, name string, bucket int64) {
	byBucket, ok := m[name]
	if !ok {
		byBucket = make(map[int64]int)
		m[name] = byBucket
	}
	byBucket[bucket]++
}

// burstScore is the one burst formula: the smoothed ratio of a bucket's
// count to its historical baseline, shared by the live detector's scan and
// windowed Backfill.
func burstScore(current int, baseline float64) float64 {
	return (float64(current) + smoothing) / (baseline + smoothing)
}

// burstAt scores byBucket[b] against the historical mean of the buckets
// strictly before b.
func burstAt(byBucket map[int64]int, b int64) (current int, baseline, score float64) {
	current = byBucket[b]
	sum, n := 0, 0
	for hb, hc := range byBucket {
		if hb < b {
			sum += hc
			n++
		}
	}
	if n > 0 {
		baseline = float64(sum) / float64(n)
	}
	return current, baseline, burstScore(current, baseline)
}

// trendLess is the canonical trend ordering: score desc, current desc, name
// asc — shared by Trending and Backfill.
func trendLess(a, b Trend) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Current != b.Current {
		return a.Current > b.Current
	}
	return a.Name < b.Name
}

// Trending returns the top-k bursting entities and predicates for the
// window containing now, ordered by descending burst score. When the
// current window is quiet (no item reaches minCurrent — streams are bursty
// and the last bucket may be nearly empty), it falls back to the most
// recent window with qualifying activity.
func (d *Detector) Trending(now time.Time, k int) []Trend {
	cur := d.bucketOf(now)
	d.mu.RLock()
	out := d.trendingAt(cur)
	if len(out) == 0 {
		if b, ok := d.latestActiveBucket(cur); ok {
			out = d.trendingAt(b)
		}
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return trendLess(out[i], out[j]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func (d *Detector) trendingAt(cur int64) []Trend {
	var out []Trend
	out = append(out, d.scan(d.entityCounts, KindEntity, cur)...)
	out = append(out, d.scan(d.predCounts, KindPredicate, cur)...)
	return out
}

// latestActiveBucket returns the most recent bucket at or before cur in
// which any entity or predicate reached minCurrent mentions.
func (d *Detector) latestActiveBucket(cur int64) (int64, bool) {
	best := int64(0)
	found := false
	scanMap := func(m map[string]map[int64]int) {
		for _, byBucket := range m {
			for b, c := range byBucket {
				if b <= cur && c >= d.minCurrent && (!found || b > best) {
					best = b
					found = true
				}
			}
		}
	}
	scanMap(d.entityCounts)
	scanMap(d.predCounts)
	return best, found
}

func (d *Detector) scan(m map[string]map[int64]int, kind Kind, cur int64) []Trend {
	var out []Trend
	for name, byBucket := range m {
		if byBucket[cur] < d.minCurrent {
			continue
		}
		current, baseline, score := burstAt(byBucket, cur)
		out = append(out, Trend{
			Name:     name,
			Kind:     kind,
			Current:  current,
			Baseline: baseline,
			Score:    score,
		})
	}
	return out
}

// Series returns the activity counts under a name for the n buckets ending
// at the one containing now — the sparkline behind Fig 6's entity view. When
// an entity and a predicate share the name, their counts are summed rather
// than the predicate's being shadowed. A non-positive n returns nil.
func (d *Detector) Series(name string, now time.Time, n int) []int {
	if n <= 0 {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	entity := d.entityCounts[name]
	pred := d.predCounts[name]
	cur := d.bucketOf(now)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		b := cur - int64(n-1-i)
		out[i] = entity[b] + pred[b]
	}
	return out
}

// Backfill scores bursts inside an arbitrary historical window from a replay
// of dated facts — the windowed complement of the live detector, which only
// scores the single bucket its clock sits in. The facts slice must contain
// every dated fact up to the window's end (history before the window feeds
// the baselines); callers typically materialize it from the temporal index.
// Like the live detector, only extracted facts with a provenance time count.
//
// Each (name, bucket) pair whose bucket overlaps the window and whose count
// reaches minCurrent is burst-scored against the mean of that name's
// buckets strictly before it; the best-scoring bucket per name wins. Results
// are ordered like Trending (score desc, current desc, name asc) and
// truncated to k (k <= 0 keeps everything).
func Backfill(facts []core.Fact, w temporal.Window, cfg Config, k int) []Trend {
	if cfg.Bucket <= 0 {
		cfg = DefaultConfig()
	}
	if w.IsEmpty() {
		return nil
	}
	entityCounts := make(map[string]map[int64]int)
	predCounts := make(map[string]map[int64]int)
	for _, f := range facts {
		if f.Curated || f.Provenance.Time.IsZero() {
			continue
		}
		ts := f.Provenance.Time.Unix()
		if !w.IsAll() && ts >= w.Until {
			continue // beyond the window's end: not even baseline history
		}
		b := bucketAt(cfg, ts)
		bump(entityCounts, f.Subject, b)
		bump(entityCounts, f.Object, b)
		bump(predCounts, f.Predicate, b)
	}

	bucketSec := int64(cfg.Bucket / time.Second)
	if bucketSec <= 0 {
		bucketSec = 1
	}
	// A bucket b covers [b*bucketSec, (b+1)*bucketSec); it overlaps the
	// window when it starts before Until and ends after Since.
	inWindow := func(b int64) bool {
		if w.IsAll() {
			return true
		}
		return b*bucketSec < w.Until && (b+1)*bucketSec > w.Since
	}

	var out []Trend
	scanWindow := func(m map[string]map[int64]int, kind Kind) {
		for name, byBucket := range m {
			// Sweep the buckets in ascending order with a running prefix
			// sum, so every bucket's strictly-before baseline mean falls out
			// in O(B log B) per name instead of rescanning history per
			// scored bucket.
			keys := make([]int64, 0, len(byBucket))
			for b := range byBucket {
				keys = append(keys, b)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			best, found := Trend{}, false
			sum, n := 0, 0
			for _, b := range keys {
				current := byBucket[b]
				if current >= minCurrent && inWindow(b) {
					baseline := 0.0
					if n > 0 {
						baseline = float64(sum) / float64(n)
					}
					tr := Trend{
						Name:     name,
						Kind:     kind,
						Current:  current,
						Baseline: baseline,
						Score:    burstScore(current, baseline),
					}
					if !found || tr.Score > best.Score ||
						(tr.Score == best.Score && tr.Current > best.Current) {
						best, found = tr, true
					}
				}
				sum += current
				n++
			}
			if found {
				out = append(out, best)
			}
		}
	}
	scanWindow(entityCounts, KindEntity)
	scanWindow(predCounts, KindPredicate)

	sort.Slice(out, func(i, j int) bool { return trendLess(out[i], out[j]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
