// Command benchmark is the system benchmark of this repository: one command
// that drives the served system — a durable nous.Pipeline behind
// internal/server on a loopback TCP listener — through four workloads
// (construction, querying, querying while constructing, restart), checks
// that the outputs are correct, and prints every metric by name and unit.
// BENCHMARK.json at the repository root describes it to the driver;
// README.md in this directory is the glossary.
//
//	go run ./benchmark -workload query_live              # one workload
//	go run ./benchmark                                   # all four, one process each
//	go run ./benchmark -workload ingest_stream -trace 1  # per-layer numbers + span file
//	go run ./benchmark -runs 10                          # repeatability: medians and quartiles
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct":…, "attempted":…, "failed":…, "metrics":{…}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the seed runs use unless told otherwise. (README.md names
// the seed held out for verifying claimed gains.)
const defaultSeed = 1

// metricDef names one metric. Bound (end-to-end metrics only) is the share
// of the parent's median by which it may worsen before a change is a
// regression. These tables and BENCHMARK.json must agree; gen_test.go checks.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// Every workload reports every end-to-end metric; what one operation is
// depends on the workload (README.md, "Metrics"):
//
//	ingest_stream    op = one article integrated; latency = one IngestAll chunk
//	query_*          op = one correct HTTP response
//	restart_recover  op = one recovery: OpenWithOptions → first correct answer
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"live_heap_mb", "MiB", "lower", 0.15},
	{"disk_bytes_per_fact", "bytes", "lower", 0.05},
}

type workloadDef struct {
	Name, Why string
	run       func(*config) (*result, error)
}

var workloads = []workloadDef{
	{"ingest_stream", "construction only: the extraction, integration and durable write layers do all the work and no query runs", runIngest},
	{"query_static", "reads at a frozen epoch: server, qa, plan and the read caches do the work while the ingestion layers stay idle", runQueryStatic},
	{"query_live", "the same reads while a writer ingests 50 articles/s: every accepted fact bumps the epoch and invalidates the caches", runQueryLive},
	{"restart_recover", "close then reopen a checkpointed data dir: snapshot decode, WAL replay, index rebuild and pipeline assembly, no serving", runRestart},
}

// config is one run's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	TraceOut string // span file; default <WorkDir>/trace-<workload>.json
	Sizes    sizes
	WorkDir  string    // data directories and the span file go here
	Out      io.Writer // human-readable report
}

func (c *config) printf(format string, args ...any) { fmt.Fprintf(c.Out, format, args...) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports. Attempted and Failed count operations: a
// non-2xx status, a non-null envelope error, a timeout, a wrong answer on a
// checked probe and every oracle violation are failed operations.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	values map[string]float64 // by metric name, end-to-end or per-layer
	notes  []string           // why Correct is false
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// check counts one oracle check as an operation and records a violation.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// finish fills Metrics with exactly the metrics the mode reports and decides
// Correct: no failed operation, and every reported metric was measured.
func (r *result) finish(trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !trace {
			r.notes = append(r.notes, "metric "+d.Name+" was not measured")
			r.Failed++
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	var trace, runs int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run; empty runs all four, one process each")
	flag.Int64Var(&cfg.Seed, "seed", defaultSeed, "seed of every generated input")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "span file of a traced run (default <work-dir>/trace-<workload>.json)")
	flag.StringVar(&cfg.WorkDir, "work-dir", ".bench_build", "directory for data dirs and span files, created if missing")
	flag.IntVar(&runs, "runs", 0, "repeatability mode: run each selected workload this many times on consecutive seeds")
	flag.Parse()
	cfg.Trace = trace != 0
	cfg.Sizes = fullSizes
	cfg.Out = os.Stdout

	if runs > 0 || cfg.Workload == "" {
		if err := runChildren(&cfg, runs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return exitCode(res)
}

// exitCode is non-zero for a run with any failed operation.
func exitCode(res *result) int {
	if !res.Correct {
		return 2
	}
	return 0
}

// runWorkload runs cfg.Workload once in this process and prints its report.
func runWorkload(cfg *config) (*result, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].Name == cfg.Workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	cfg.printf("workload %s: %s\n", def.Name, def.Why)
	cfg.printf("seed %d, %.0f s timed, trace %v, GOMAXPROCS %d, NumCPU %d, %s\n",
		cfg.Seed, cfg.Seconds, cfg.Trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	res, err := def.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	res.finish(cfg.Trace)
	for _, n := range res.notes {
		cfg.printf("FAILED: %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cfg.printf("%-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	cfg.printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// runChildren re-executes this binary once per (workload, seed): every run
// gets a fresh process, as the driver gives it. With runs == 0 it runs each
// selected workload once and relays the reports; otherwise it prints, per
// end-to-end metric, the median, the quartiles and the quartile spread as a
// share of the median, flagging spreads beyond the metric's bound.
func runChildren(cfg *config, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var selected []string
	for _, w := range workloads {
		if cfg.Workload == "" || cfg.Workload == w.Name {
			selected = append(selected, w.Name)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	n := runs
	if n == 0 {
		n = 1
	}
	var failed []string
	for _, name := range selected {
		samples := map[string][]float64{}
		for i := 0; i < n; i++ {
			args := []string{
				"-workload", name, "-seed", fmt.Sprint(cfg.Seed + int64(i)),
				"-seconds", fmt.Sprint(cfg.Seconds), "-work-dir", cfg.WorkDir,
			}
			if cfg.Trace {
				args = append(args, "-trace", "1")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if runs == 0 {
				os.Stdout.Write(out)
			}
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				return err
			}
			res, perr := lastLineResult(out)
			if perr != nil {
				return fmt.Errorf("%s seed %d: %w", name, cfg.Seed+int64(i), perr)
			}
			if !res.Correct {
				failed = append(failed, fmt.Sprintf("%s seed %d: %d of %d operations failed", name, cfg.Seed+int64(i), res.Failed, res.Attempted))
			}
			for m, v := range res.Metrics {
				samples[m] = append(samples[m], v.Value)
			}
		}
		if runs > 0 {
			printSpread(cfg.Out, name, n, samples)
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

func lastLineResult(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is what
// the driver computes.
func quartileSpread(xs []float64) (q1, med, q3, spread float64) {
	s := sorted(xs)
	at := func(p float64) float64 { // p in (0,1), position p*(n+1), 1-based
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	q1, med, q3 = at(0.25), at(0.5), at(0.75)
	if med != 0 {
		spread = (q3 - q1) / med
	}
	return
}

func printSpread(w io.Writer, workload string, n int, samples map[string][]float64) {
	fmt.Fprintf(w, "%s: %d runs\n", workload, n)
	fmt.Fprintf(w, "  %-22s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, d := range endToEnd {
		xs := samples[d.Name]
		if len(xs) < 2 {
			continue
		}
		q1, med, q3, spread := quartileSpread(xs)
		flag := ""
		if spread > d.Bound && d.Name != "setup_s" {
			flag = "  SPREAD EXCEEDS BOUND"
		}
		fmt.Fprintf(w, "  %-22s %12.4f %12.4f %12.4f %7.1f%% %6.0f%%%s\n", d.Name, q1, med, q3, 100*spread, 100*d.Bound, flag)
	}
}

// traceOut is where a traced run writes its spans.
func (c *config) traceOut() string {
	if c.TraceOut != "" {
		return c.TraceOut
	}
	return filepath.Join(c.WorkDir, "trace-"+c.Workload+".json")
}

// sorted, median and percentile work on a copy; xs may be in any order.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailPercentile picks the highest of p99.9, p99, p95, p90 that has at least
// ten samples beyond it and renders it as "p99 1.234 ms"; under 100 samples
// even p90 has fewer, and there is no tail to report.
func tailPercentile(xs []float64) (value float64, text string) {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(len(xs))*(100-p)/100 >= 10 {
			v := percentile(xs, p)
			return v, fmt.Sprintf("p%v %.3f ms", p, v)
		}
	}
	return 0, "no tail percentile under 100 samples"
}
