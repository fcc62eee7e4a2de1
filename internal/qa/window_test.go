package qa

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"nous/internal/plan"
	"nous/internal/temporal"
)

var parseNow = time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)

func mustParseAt(t *testing.T, q string) Query {
	t.Helper()
	parsed, err := ParseAt(q, parseNow)
	if err != nil {
		t.Fatalf("ParseAt(%q): %v", q, err)
	}
	return parsed
}

func TestParseTemporalQualifiers(t *testing.T) {
	y2015 := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	y2016 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	y2017 := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()

	cases := []struct {
		q       string
		class   Class
		subject string
		window  temporal.Window
	}{
		{"Tell me about DJI in 2015", ClassEntity, "DJI",
			temporal.Window{Since: y2015, Until: y2016}},
		{"Tell me about DJI during 2015", ClassEntity, "DJI",
			temporal.Window{Since: y2015, Until: y2016}},
		{"Tell me about DJI between 2015 and 2016", ClassEntity, "DJI",
			temporal.Window{Since: y2015, Until: y2017}},
		{"Tell me about DJI since 2015", ClassEntity, "DJI",
			temporal.Window{Since: y2015, Until: math.MaxInt64}},
		{"Tell me about DJI before 2015", ClassEntity, "DJI",
			temporal.Window{Since: math.MinInt64, Until: y2015}},
		{"Tell me about DJI as of 2015", ClassEntity, "DJI",
			temporal.Window{Since: math.MinInt64, Until: y2016}},
		{"Tell me about DJI as of 2015-06-30", ClassEntity, "DJI",
			temporal.Window{Since: math.MinInt64, Until: time.Date(2015, 7, 1, 0, 0, 0, 0, time.UTC).Unix()}},
		// Relative windows quantize to the minute (parseNow is on an exact
		// minute, so Since is unchanged and Until is the next minute).
		{"Tell me about DJI last week", ClassEntity, "DJI",
			temporal.Window{Since: parseNow.AddDate(0, 0, -7).Unix(), Until: parseNow.Unix() + 60}},
		{"Tell me about DJI in the last 3 months", ClassEntity, "DJI",
			temporal.Window{Since: parseNow.AddDate(0, -3, 0).Unix(), Until: parseNow.Unix() + 60}},
		{"Tell me about DJI over the past 2 years", ClassEntity, "DJI",
			temporal.Window{Since: parseNow.AddDate(-2, 0, 0).Unix(), Until: parseNow.Unix() + 60}},
	}
	for _, c := range cases {
		got := mustParseAt(t, c.q)
		if got.Class != c.class || got.Subject != c.subject {
			t.Errorf("%q parsed to class=%s subject=%q", c.q, got.Class, got.Subject)
			continue
		}
		if got.Window != c.window {
			t.Errorf("%q window = %+v, want %+v", c.q, got.Window, c.window)
		}
	}
}

func TestRelativeWindowsShareCacheKeyWithinMinute(t *testing.T) {
	// Two asks seconds apart must resolve "last week" to the same window,
	// or every request would mint a fresh windowed-PageRank cache key.
	a, err := ParseAt("Tell me about DJI last week", parseNow.Add(1*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseAt("Tell me about DJI last week", parseNow.Add(42*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if a.Window != b.Window {
		t.Fatalf("windows differ within one minute: %+v vs %+v", a.Window, b.Window)
	}
}

func TestParseTemporalAcrossClasses(t *testing.T) {
	q := mustParseAt(t, "How is Windermere related to DJI in 2015?")
	if q.Class != ClassRelationship || q.Subject != "Windermere" || q.Object != "DJI" {
		t.Fatalf("parsed %+v", q)
	}
	if !q.Window.Bounded() {
		t.Fatal("relationship query lost its window")
	}
	q = mustParseAt(t, "What was trending in 2015?")
	if q.Class != ClassTrending || !q.Window.Bounded() {
		t.Fatalf("trending query = %+v", q)
	}
	q = mustParseAt(t, "What does DJI manufacture since 2015?")
	if q.Class != ClassFact || q.Predicate != "manufactures" || !q.Window.Bounded() {
		t.Fatalf("fact query = %+v", q)
	}
	// No qualifier → unbounded window, same query otherwise.
	plain := mustParseAt(t, "Tell me about DJI")
	if plain.Window != (temporal.Window{}) {
		t.Fatalf("plain question got window %+v", plain.Window)
	}
	withQ := mustParseAt(t, "Tell me about DJI last month")
	plain.Window = withQ.Window
	if !reflect.DeepEqual(plain, withQ) {
		t.Fatalf("qualifier changed more than the window: %+v vs %+v", plain, withQ)
	}
}

func TestParseRejectsEmptyRange(t *testing.T) {
	_, err := ParseAt("Tell me about DJI between 2016 and 2015", parseNow)
	if err == nil {
		t.Fatal("inverted range accepted")
	}
	if !errors.Is(err, ErrParse) {
		t.Fatalf("range error is not ErrParse: %v", err)
	}
}

func TestParseErrorsMatchErrParse(t *testing.T) {
	for _, q := range []string{
		"", "colorless green ideas sleep furiously",
		// Fact questions whose arguments the quote trimming empties.
		`Where is "" headquartered?`, `What does '' manufacture?`, `Who acquired ""?`, `Did "" acquire ""?`,
	} {
		_, err := ParseAt(q, parseNow)
		if err == nil {
			t.Fatalf("%q parsed", q)
		}
		if !errors.Is(err, ErrParse) {
			t.Fatalf("%q error %v does not match ErrParse", q, err)
		}
	}
}

// TestFullRangeWindowByteIdentical pins the acceptance criterion: a
// full-range window must return byte-identical answers to the unwindowed
// query, across every windowed query class.
func TestFullRangeWindowByteIdentical(t *testing.T) {
	ex := buildExecutor(t)
	questions := []string{
		"Tell me about DJI",
		"Tell me about Windermere",
		"How is Windermere related to DJI?",
		"What does DJI manufacture?",
		"Did GoPro acquire Aeros Labs?",
		"What is trending?",
	}
	for _, q := range questions {
		plain, err := ask(ex, q)
		if err != nil {
			t.Fatalf("Ask(%q): %v", q, err)
		}
		windowed, err := askWindow(ex, q, temporal.All())
		if err != nil {
			t.Fatalf("AskWindow(%q, All): %v", q, err)
		}
		if plain.Text != windowed.Text {
			t.Fatalf("full-range answer for %q diverges:\n%s\nvs\n%s", q, plain.Text, windowed.Text)
		}
		if !reflect.DeepEqual(plain, windowed) {
			t.Fatalf("full-range structured answer for %q diverges", q)
		}
	}
}

// TestWideBoundedWindowSameFacts checks that a bounded window covering every
// timestamp returns the same facts and paths as the unwindowed query (the
// windowed code path, not the IsAll fast path).
func TestWideBoundedWindowSameFacts(t *testing.T) {
	ex := buildExecutor(t)
	wide := temporal.Window{Since: math.MinInt64 + 1, Until: math.MaxInt64 - 1}

	run := func(q Query) plan.Result {
		t.Helper()
		p, err := Lower(q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ex.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	plain := run(Query{Class: ClassEntity, Subject: "Windermere", K: 10})
	windowed := run(Query{Class: ClassEntity, Subject: "Windermere", K: 10, Window: wide})
	if !reflect.DeepEqual(plain.Entity.Facts, windowed.Entity.Facts) {
		t.Fatalf("wide window changed the fact set:\n%+v\nvs\n%+v", plain.Entity.Facts, windowed.Entity.Facts)
	}
	if plain.Entity.Importance != windowed.Entity.Importance {
		t.Fatalf("wide window changed importance: %v vs %v", plain.Entity.Importance, windowed.Entity.Importance)
	}
}

func TestWindowedEntityFiltersFacts(t *testing.T) {
	ex := buildExecutor(t)
	// All extracted facts are dated 2015-06-01; a 2014 window must keep only
	// curated facts, a window containing June 2015 keeps everything.
	a, err := ask(ex, "Tell me about Windermere in 2014")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entity.Facts) != 0 {
		t.Fatalf("2014 window leaked extracted facts: %+v", a.Entity.Facts)
	}
	if !strings.Contains(a.Text, "window:") {
		t.Fatalf("windowed answer text lacks window line:\n%s", a.Text)
	}
	a, err = ask(ex, "Tell me about Windermere in 2015")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entity.Facts) != 2 {
		t.Fatalf("2015 window facts = %+v, want the two deploys extractions", a.Entity.Facts)
	}
	// Curated facts survive any window.
	a, err = ask(ex, "Tell me about DJI in 2014")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entity.Facts) != 2 {
		t.Fatalf("curated facts filtered by window: %+v", a.Entity.Facts)
	}
}

func TestWindowedFactQuery(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "Did GoPro acquire Aeros Labs in 2014?")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fact.Known {
		t.Fatal("2014 window reported a 2015 fact as known")
	}
	a, err = ask(ex, "Did GoPro acquire Aeros Labs in 2015?")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Fact.Known {
		t.Fatal("2015 window missed the 2015 fact")
	}
}

// TestEmptyWindowIntersectionYieldsNothing: a question window disjoint from
// the caller's API window must answer "nothing" across classes — including
// trending, which derives its reference time from the window's end.
func TestEmptyWindowIntersectionYieldsNothing(t *testing.T) {
	ex := buildExecutor(t)
	apiWin := temporal.Window{Since: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), Until: math.MaxInt64}
	a, err := askWindow(ex, "What was trending in 2015?", apiWin)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trends) != 0 {
		t.Fatalf("disjoint window returned trends: %+v", a.Trends)
	}
	// The epoch-straddling disjoint pair must not flip to all-of-time.
	a, err = askWindow(ex, "What was trending before 1970?",
		temporal.Window{Since: 0, Until: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trends) != 0 {
		t.Fatalf("epoch-straddling empty window returned trends: %+v", a.Trends)
	}
	// Entity summaries in the same empty window keep only curated facts.
	e, err := askWindow(ex, "Tell me about Windermere in 2015", apiWin)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Entity.Facts) != 0 {
		t.Fatalf("empty window leaked facts: %+v", e.Entity.Facts)
	}
}

func TestWindowedRelationshipQuery(t *testing.T) {
	ex := buildExecutor(t)
	// Windermere -deploys-> Phantom 3 <-manufactures- DJI; the deploys hop
	// is extracted (2015-06-01), manufactures is curated.
	a, err := ask(ex, "How is Windermere related to DJI in 2015?")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Paths) == 0 {
		t.Fatalf("no path inside the window:\n%s", a.Text)
	}
	a, err = ask(ex, "How is Windermere related to DJI in 2014?")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Paths) != 0 {
		t.Fatalf("extracted hop visible outside its window:\n%s", a.Text)
	}
}

func TestParseDiffForms(t *testing.T) {
	y := func(yr int) int64 { return time.Date(yr, 1, 1, 0, 0, 0, 0, time.UTC).Unix() }
	cases := []struct {
		q       string
		subject string
		a, b    temporal.Window
	}{
		{"What changed about DJI between 2015 and 2016?", "DJI",
			temporal.Window{Since: y(2015), Until: y(2016)}, temporal.Window{Since: y(2016), Until: y(2017)}},
		{"what has changed between 2014 and 2016", "",
			temporal.Window{Since: y(2014), Until: y(2015)}, temporal.Window{Since: y(2016), Until: y(2017)}},
		{"How did DJI change between 2015 and 2016?", "DJI",
			temporal.Window{Since: y(2015), Until: y(2016)}, temporal.Window{Since: y(2016), Until: y(2017)}},
		{"What is new about DJI since 2015?", "DJI",
			temporal.Window{Since: math.MinInt64, Until: y(2015)}, temporal.Window{Since: y(2015), Until: math.MaxInt64}},
		{"What's new about DJI since 2015?", "DJI",
			temporal.Window{Since: math.MinInt64, Until: y(2015)}, temporal.Window{Since: y(2015), Until: math.MaxInt64}},
		{"What's different between 2015 and 2016?", "",
			temporal.Window{Since: y(2015), Until: y(2016)}, temporal.Window{Since: y(2016), Until: y(2017)}},
		{"What changed about DJI between 2015-06-01 and 2015-06-12?", "DJI",
			temporal.Window{
				Since: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC).Unix(),
				Until: time.Date(2015, 6, 2, 0, 0, 0, 0, time.UTC).Unix()},
			temporal.Window{
				Since: time.Date(2015, 6, 12, 0, 0, 0, 0, time.UTC).Unix(),
				Until: time.Date(2015, 6, 13, 0, 0, 0, 0, time.UTC).Unix()}},
	}
	for _, c := range cases {
		got := mustParseAt(t, c.q)
		if got.Class != ClassDiff || got.Subject != c.subject {
			t.Errorf("%q parsed to %+v, want diff about %q", c.q, got, c.subject)
			continue
		}
		if got.Window != c.a || got.WindowB != c.b {
			t.Errorf("%q windows = %v / %v, want %v / %v", c.q, got.Window, got.WindowB, c.a, c.b)
		}
	}
}

func TestParseDiffRejectsNonIncreasingRange(t *testing.T) {
	for _, q := range []string{
		"What changed about DJI between 2016 and 2015?",
		"What changed between 2015 and 2015?",
	} {
		_, err := ParseAt(q, parseNow)
		if err == nil {
			t.Fatalf("%q parsed", q)
		}
		if !errors.Is(err, ErrParse) {
			t.Fatalf("%q error %v does not match ErrParse", q, err)
		}
	}
}

// TestPlanStatsConcurrentWithFirstAsk: reading the executor's stats while
// another goroutine runs its first query must be race-free.
func TestPlanStatsConcurrentWithFirstAsk(t *testing.T) {
	ex := buildExecutor(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			ex.Stats()
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := ask(ex, "Tell me about DJI"); err != nil {
			t.Error(err)
			break
		}
	}
	<-done
	if st := ex.Stats(); st.Plans == 0 {
		t.Fatal("no plans accounted")
	}
}

// TestDiffEndToEnd executes a diff query against the window fixture: the
// extracted facts are all dated 2015-06-01, so a 2014→2015 diff reports them
// as added and the curated substrate as unchanged.
func TestDiffEndToEnd(t *testing.T) {
	ex := buildExecutor(t)
	a, err := ask(ex, "What changed about Windermere between 2014 and 2015?")
	if err != nil {
		t.Fatal(err)
	}
	if a.Class != string(ClassDiff) || a.Diff == nil {
		t.Fatalf("diff answer = %+v", a)
	}
	if len(a.Diff.Added) != 1 || a.Diff.Added[0].Predicate != "deploys" {
		t.Fatalf("added = %+v, want the deploys extraction once (deduped)", a.Diff.Added)
	}
	if len(a.Diff.Removed) != 0 {
		t.Fatalf("removed = %+v, want none", a.Diff.Removed)
	}
	if !strings.Contains(a.Text, "+ Windermere -[deploys]-> Phantom 3") {
		t.Fatalf("text = %s", a.Text)
	}
	// Reverse direction: the extraction disappears.
	b, err := ask(ex, "What changed about Windermere between 2015 and 2016?")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Diff.Removed) != 1 || len(b.Diff.Added) != 0 {
		t.Fatalf("reverse diff = %+v", b.Diff)
	}
	// Unknown entity degrades like the entity class.
	c, err := ask(ex, "What changed about Zorblatt between 2014 and 2015?")
	if err != nil {
		t.Fatal(err)
	}
	if c.Diff != nil || !strings.Contains(c.Text, "don't know") {
		t.Fatalf("unknown entity diff = %+v", c)
	}
}
