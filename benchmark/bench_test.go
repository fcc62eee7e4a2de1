package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at toy scale through
// the code path the benchmark uses: set-up, timed phase, oracles, durability
// probe, metrics, span file.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				var report strings.Builder
				cfg := &config{
					Workload: w.Name, Seed: 3, Seconds: 0.4, Trace: trace,
					Sizes: toySizes, WorkDir: t.TempDir(), Out: &report,
				}
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatalf("%v\n%s", err, report.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || exitCode(res) != 0 {
					t.Fatalf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, report.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: %+v, reported %v", d.Name, m, ok)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, m.Value)
					}
				}
				if trace {
					info, err := os.Stat(cfg.traceOut())
					if err != nil || info.Size() == 0 {
						t.Errorf("span file: %v", err)
					}
					if !strings.Contains(report.String(), "layer span") {
						t.Error("no per-layer table printed")
					}
				}
				left, _ := filepath.Glob(filepath.Join(cfg.WorkDir, "*-*"))
				for _, l := range left {
					if !strings.HasSuffix(l, ".json") {
						t.Errorf("left behind: %s", l)
					}
				}
			})
		}
	}
}

// stubClient is a load client pointed at a server that answers every request
// with the given status and body.
func stubClient(t *testing.T, static bool, reply func() (int, string)) *client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		status, body := reply()
		w.WriteHeader(status)
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	c := newClient(0, &system{base: ts.URL}, 1, []string{"A", "B"}, nil, static)
	return c
}

// A deliberately broken answer must become a counted failure and a non-zero
// exit, for every per-reply oracle.
func TestBrokenAnswersAreCounted(t *testing.T) {
	const ok = `{"data":{"class":"fact","text":"DJI manufactures Phantom 3","data":{"Known":true}},"error":null,"meta":{"epoch":7,"window":null,"took_ms":0}}`
	probe := request{Class: classFact, Path: "/api/v1/ask?q=x", Expect: "Phantom 3"}
	cases := []struct {
		name   string
		static bool
		reply  []string // successive bodies
		status int
		want   string // substring of the failure note; "" = no failure
	}{
		{name: "correct answer", reply: []string{ok}, status: 200},
		{name: "wrong answer on a checked probe", reply: []string{strings.ReplaceAll(ok, "Phantom 3", "Bebop 2")}, status: 200, want: "does not name"},
		{name: "non-2xx status", reply: []string{ok}, status: 503, want: "status 503"},
		{name: "envelope error", reply: []string{`{"data":null,"error":{"code":"internal","message":"boom"},"meta":{"epoch":7}}`}, status: 200, want: "envelope error"},
		{name: "not an envelope", reply: []string{`<html>`}, status: 200, want: "malformed envelope"},
		{name: "epoch goes back", reply: []string{ok, strings.ReplaceAll(ok, `"epoch":7`, `"epoch":6`)}, status: 200, want: "meta.epoch went back"},
		{name: "repeated key differs", static: true, reply: []string{ok, strings.ReplaceAll(ok, "true", "false")}, status: 200, want: "repeated key answered differently"},
		{name: "repeated key, took_ms differs", static: true, reply: []string{ok, strings.ReplaceAll(ok, `"took_ms":0`, `"took_ms":9`)}, status: 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			c := stubClient(t, tc.static, func() (int, string) {
				body := tc.reply[min(n, len(tc.reply)-1)]
				n++
				return tc.status, body
			})
			for range tc.reply {
				c.do(probe, true, 0)
			}
			res := newResult()
			res.Attempted, res.Failed, res.notes = c.attempted, c.failed, c.notes
			for _, d := range endToEnd {
				res.set(d.Name, 1)
			}
			res.finish(false)
			if tc.want == "" {
				if res.Failed != 0 || !res.Correct || exitCode(res) != 0 {
					t.Fatalf("failed %d, notes %v", res.Failed, res.notes)
				}
				return
			}
			if res.Failed != 1 || res.Correct || exitCode(res) == 0 {
				t.Fatalf("failed %d, correct %v, exit %d; want one counted failure and a non-zero exit", res.Failed, res.Correct, exitCode(res))
			}
			if !strings.Contains(strings.Join(res.notes, "\n"), tc.want) {
				t.Errorf("notes %q do not mention %q", res.notes, tc.want)
			}
		})
	}
}

func TestBrokenOraclesAreCounted(t *testing.T) {
	res := newResult()
	checkIngestDeterminism(res, "aaaa", "bbbb", 10, 11)
	if res.Failed != 2 {
		t.Errorf("ingest determinism: %d failures counted, want 2", res.Failed)
	}
	res = newResult()
	checkIngestDeterminism(res, "aaaa", "aaaa", 10, 10)
	if res.Failed != 0 || res.Attempted != 2 {
		t.Errorf("ingest determinism, equal runs: attempted %d, failed %d", res.Attempted, res.Failed)
	}

	// A recovered pipeline that lost a fact fails the restart oracle.
	cfg := &config{Seed: 3, Sizes: toySizes, WorkDir: t.TempDir(), Out: io.Discard}
	sys, err := openSystem(cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	want, err := stateOf(sys.p)
	if err != nil {
		t.Fatal(err)
	}
	res = newResult()
	checkRecovered(res, 0, sys.p, want, true)
	if res.Failed != 0 {
		t.Fatalf("restart oracle on an unchanged pipeline: %v", res.notes)
	}
	if err := addAll(sys.p.KG(), synthFacts(3, 0, 1)); err != nil {
		t.Fatal(err)
	}
	checkRecovered(res, 1, sys.p, want, true)
	if res.Failed != 3 { // epoch, fact count, digest
		t.Errorf("restart oracle on a changed pipeline: %d failures, want 3: %v", res.Failed, res.notes)
	}

	// A metric that was never measured fails the run.
	res = newResult()
	res.finish(false)
	if res.Correct || exitCode(res) == 0 {
		t.Error("a run without metrics counts as correct")
	}
}
