package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected to a pipe and returns what it
// printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// The parallel schedule must be observationally identical to the serial
// one: same findings, same ordering, byte for byte. Run the driver over a
// real dependency slice of this module both ways and compare stdout.
func TestStandaloneParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks real packages")
	}
	// A slice with real cross-package fact flow: plan imports temporal and
	// graph (via core), and qa imports plan.
	patterns := []string{"nous/internal/temporal", "nous/internal/plan", "nous/internal/qa"}
	runWith := func(parallel int) string {
		return capture(t, func() {
			if code := runStandalone(allAnalyzers, patterns, true, parallel); code != 0 && code != 2 {
				t.Errorf("runStandalone(parallel %d) = %d, want 0 or 2", parallel, code)
			}
		})
	}
	serial := runWith(1)
	par := runWith(8)
	if serial != par {
		t.Fatalf("parallel output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	if !strings.Contains(serial, "\"suppressed\":") {
		t.Fatalf("missing suppression summary in output:\n%s", serial)
	}
}

// The exit contract CI depends on, over a throwaway module: a finding makes
// the run exit 2 and prints exactly one JSON finding line, a waived finding
// is only counted, and with the finding gone the run exits 0. Not parallel:
// the driver runs `go list` in the working directory, which the test moves.
func TestExitContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list and type-checks a module")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module nous\n\ngo 1.22\n")
	const waived = `
func Waived() time.Time {
	//nouslint:allow noclock -- the waived call
	return time.Now()
}
`
	write("internal/plan/plan.go", "package plan\n\nimport \"time\"\n\nfunc Bare() time.Time {\n\treturn time.Now()\n}\n"+waived)

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})

	var code int
	out := capture(t, func() { code = run([]string{"-json", "./..."}) })
	if code != 2 {
		t.Errorf("run with a bare time.Now() = %d, want 2", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if last := lines[len(lines)-1]; last != `{"suppressed":1}` {
		t.Errorf("last line = %q, want {\"suppressed\":1}", last)
	}
	var findings []jsonFinding
	for _, line := range lines[:len(lines)-1] {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("non-JSON line %q: %v", line, err)
		}
		findings = append(findings, f)
	}
	want := filepath.Join("internal", "plan", "plan.go")
	if len(findings) != 1 || !strings.HasSuffix(findings[0].File, want) ||
		findings[0].Line != 6 || findings[0].Col != 9 || findings[0].Rule != "noclock" {
		t.Fatalf("findings = %+v, want one noclock finding at %s:6:9\n%s", findings, want, out)
	}

	write("internal/plan/plan.go", "package plan\n\nimport \"time\"\n"+waived)
	out = capture(t, func() { code = run([]string{"-json", "./..."}) })
	if code != 0 || strings.TrimSpace(out) != `{"suppressed":1}` {
		t.Errorf("run with only the waived call = %d, output %q; want 0 and {\"suppressed\":1}", code, out)
	}
}
