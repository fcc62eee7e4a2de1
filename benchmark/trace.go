package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Spans are recorded from the benchmark's own files, around calls into each
// layer's public functions; spans inside the program are a later change.
// Because the layers cannot be observed from inside one call, a request is
// replayed outermost layer first — over HTTP, then in-process, then through
// its class's layer entry points — and each replay is recorded as a child of
// the one before. A span's self time is its duration minus its children's:
// the part of the work the inner replays do not account for.

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	ID, Parent int // Parent 0 = root
	Req        int // request / document / restart-cycle number
	Name       string
	Start, End int64
}

// tracer collects spans in memory. One tracer belongs to one goroutine;
// tracers are merged when the run ends, so recording takes no lock.
type tracer struct {
	t0    time.Time
	base  int // ids are base+1, base+2, ... so merged tracers stay unique
	spans []span
}

// tracerStride separates the id ranges of per-goroutine tracers.
const tracerStride = 1 << 24

func newTracer(t0 time.Time, shard int) *tracer {
	return &tracer{t0: t0, base: shard * tracerStride}
}

// begin opens a span and returns its id; end closes it. A nil tracer
// records nothing, which is how untraced runs share the workload code.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: t.base + len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return t.spans[len(t.spans)-1].ID
}

func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-t.base-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// time records fn as one span and returns its duration. With a nil tracer
// it still times fn, so callers can use the duration either way.
func (t *tracer) time(name string, parent, req int, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

// merge appends other tracers' spans.
func (t *tracer) merge(others ...*tracer) {
	for _, o := range others {
		if o != nil {
			t.spans = append(t.spans, o.spans...)
		}
	}
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name       string
	Count      int
	Busy, Self time.Duration
}

// layerTable sums, per span name, the call count, the busy time and the
// self time (duration minus the children's durations, never below zero).
func (t *tracer) layerTable() []layerRow {
	children := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.Busy += time.Duration(d)
		if self := d - children[s.ID]; self > 0 {
			r.Self += time.Duration(self)
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Busy > out[j].Busy })
	return out
}

// medianOf returns the median duration, in the given unit, of spans with
// this name (0 when there are none).
func (t *tracer) medianOf(name string, unit time.Duration) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/float64(unit))
		}
	}
	return median(xs)
}

func (t *tracer) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-26s %9s %12s %12s %12s\n", "layer span", "count", "busy_ms", "self_ms", "median_us")
	for _, r := range t.layerTable() {
		fmt.Fprintf(w, "%-26s %9d %12.2f %12.2f %12.1f\n", r.Name, r.Count,
			float64(r.Busy)/1e6, float64(r.Self)/1e6, t.medianOf(r.Name, time.Microsecond))
	}
}

// spanCost measures what recording one span costs, by recording many.
func spanCost() time.Duration {
	const n = 200_000
	t := newTracer(time.Now(), 0)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", 0, i))
	}
	return time.Since(start) / n
}

// writeFile writes the spans as one JSON document:
// {"workload":..., "spans":[{"id","parent","req","name","start_ns","end_ns"},...]}.
func (t *tracer) writeFile(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans\":[", workload)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
			s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
