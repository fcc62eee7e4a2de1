package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// testEntities is a ranked entity list for generator tests that need no KG.
func testEntities(t *testing.T) ([]string, []factProbe) {
	t.Helper()
	w := genWorld(1, toySizes)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	entities := rankEntities(kg)
	if len(entities) < 50 {
		t.Fatalf("only %d askable entities", len(entities))
	}
	return entities, factProbes(w, entities)
}

func requestPaths(seed int64, client, n int, entities []string, probes []factProbe) string {
	g := newRequestGen(seed, client, entities, probes)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(g.next().Path)
		b.WriteByte('\n')
	}
	return b.String()
}

func articleText(seed int64) string {
	var b strings.Builder
	for _, a := range genArticles(genWorld(seed, toySizes), seed, 200) {
		b.WriteString(a.ID + "|" + a.Date.String() + "|" + a.Text + "\n")
	}
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	entities, probes := testEntities(t)
	if a, b := requestPaths(5, 0, 2000, entities, probes), requestPaths(5, 0, 2000, entities, probes); a != b {
		t.Error("same seed, different request sequence")
	}
	if requestPaths(5, 0, 2000, entities, probes) == requestPaths(6, 0, 2000, entities, probes) {
		t.Error("different seeds, same request sequence")
	}
	if requestPaths(5, 0, 2000, entities, probes) == requestPaths(5, 1, 2000, entities, probes) {
		t.Error("two clients share one request sequence")
	}
	if articleText(5) != articleText(5) {
		t.Error("same seed, different article stream")
	}
	if articleText(5) == articleText(6) {
		t.Error("different seeds, same article stream")
	}
	if !reflect.DeepEqual(synthFacts(5, 10, 100), synthFacts(5, 10, 100)) {
		t.Error("same seed, different synthetic facts")
	}
	if reflect.DeepEqual(synthFacts(5, 10, 100), synthFacts(6, 10, 100)) {
		t.Error("different seeds, same synthetic facts")
	}
}

func TestSynthFactsBoundedDegree(t *testing.T) {
	degree := map[string]int{}
	for _, f := range synthFacts(1, 0, 3000) {
		degree[f.Subject]++
		degree[f.Object]++
	}
	for name, d := range degree {
		if d > 4 {
			t.Fatalf("%s is in %d synthetic facts, want at most 4", name, d)
		}
	}
}

// The mix, the window pool and the zipf exponent are stated in README.md.
func TestRequestMixAndPools(t *testing.T) {
	if zipfS != 1.1 {
		t.Errorf("zipf exponent %v, README states 1.1", zipfS)
	}
	pool := windowPool()
	if len(pool) != 64 {
		t.Errorf("window pool has %d windows, README states 64", len(pool))
	}
	distinct := map[poolWindow]bool{}
	for _, w := range pool {
		distinct[w] = true
		if !w.Since.Before(w.Until) {
			t.Errorf("empty pool window %v", w)
		}
	}
	if len(distinct) != len(pool) {
		t.Errorf("%d distinct windows among %d", len(distinct), len(pool))
	}
	sum := 0
	for _, p := range mixPercent {
		sum += p
	}
	if sum != 100 {
		t.Fatalf("mix sums to %d%%", sum)
	}

	entities, probes := testEntities(t)
	g := newRequestGen(1, 0, entities, probes)
	const n = 40000
	var byClass [numClasses]int
	asked, first := 0, 0
	for i := 0; i < n; i++ {
		r := g.next()
		byClass[r.Class]++
		if r.Question != "" {
			asked++
			if !strings.HasPrefix(r.Path, "/api/v1/ask?q=") {
				t.Fatalf("question %q goes to %s", r.Question, r.Path)
			}
		}
		if r.Entity == entities[0] {
			first++
		}
	}
	for c, got := range byClass {
		want := float64(mixPercent[c]) / 100
		if share := float64(got) / n; math.Abs(share-want) > 0.01 {
			t.Errorf("class %s is %.3f of requests, want %.2f", classNames[c], share, want)
		}
	}
	if float64(asked)/n < 0.5 {
		t.Errorf("only %.2f of requests go through /api/v1/ask, want at least half", float64(asked)/n)
	}
	if float64(first)/n < 0.05 {
		t.Errorf("the top-ranked entity gets %.3f of requests; the draw is not skewed", float64(first)/n)
	}
}

// BENCHMARK.json is what the driver reads; the tables in main.go and
// layers.go are what the program reports. They must say the same.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the program", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s has a bound", kind, d.Name)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
	largest := 0.0
	for _, d := range endToEnd {
		largest = math.Max(largest, d.Bound)
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Error("setup_s must be an end-to-end metric with the largest bound")
	}
}

// quartileSpread must be what Python's statistics.quantiles(xs, n=4) gives.
func TestQuartileSpread(t *testing.T) {
	q1, med, q3, spread := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || spread != 1 {
		t.Errorf("quartiles %v %v %v spread %v, want 2.75 5.5 8.25 1", q1, med, q3, spread)
	}
}
