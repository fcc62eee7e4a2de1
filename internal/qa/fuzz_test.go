package qa

import (
	"errors"
	"testing"
	"time"

	"nous/internal/temporal"
)

// FuzzParseAt drives the question parser with arbitrary input: it must never
// panic, and every failure must match ErrParse (the sentinel the server's
// 400-vs-500 mapping depends on). Successful parses must carry a known class
// and internally consistent windows, and must compile: a parsed question
// that fails to lower would reach the client as a 500.
func FuzzParseAt(f *testing.F) {
	seeds := []string{
		"",
		"What is trending?",
		"What was trending in 2015?",
		"trending over the last 3 weeks",
		"Tell me about DJI",
		"Tell me about DJI between 2014 and 2016",
		"Tell me about DJI as of 2015-06-30",
		"Who is Frank Wang",
		"How is Windermere related to DJI via acquired?",
		"Explain the relationship between DJI and GoPro",
		"What patterns are emerging?",
		"Did Amazon acquire Aeros in 2015?",
		"What does DJI manufacture since 2015?",
		"Who acquired Aeros Labs?",
		"Where is DJI headquartered?",
		"What changed about DJI between 2015 and 2016?",
		"What changed between 2015-01-01 and 2015-06-01?",
		"How did DJI change between 2014 and 2016?",
		"What is new about DJI since 2015?",
		"Tell me about DJI between 2016 and 2015",    // inverted range
		"What changed about X between 2016 and 2015", // inverted diff
		"tell me about \x00\xff",
		"did did did did",
		"between 0000 and 9999",
		"what changed about between 2015 and 2016",
		"colorless green ideas sleep furiously",
		`Where is "" headquartered?`, // arguments the quote trimming empties
		`What does '' manufacture?`,
		`Who acquired ""?`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	now := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, question string) {
		q, err := ParseAt(question, now) // must not panic
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("ParseAt(%q) error %v does not match ErrParse", question, err)
			}
			return
		}
		switch q.Class {
		case ClassTrending, ClassEntity, ClassRelationship, ClassPattern, ClassFact, ClassDiff:
		default:
			t.Fatalf("ParseAt(%q) produced unknown class %q", question, q.Class)
		}
		if q.Class == ClassDiff {
			// Diff windows must be usable: neither zero-value-ambiguous side
			// may be inverted by construction.
			if q.Window.IsAll() && q.WindowB.IsAll() {
				t.Fatalf("ParseAt(%q) diff with two unbounded windows", question)
			}
		} else if q.WindowB != (Query{}).WindowB {
			t.Fatalf("ParseAt(%q) set WindowB on class %s", question, q.Class)
		}
		if _, err := CompileAt(question, now, temporal.All()); err != nil {
			t.Fatalf("ParseAt(%q) succeeded but CompileAt failed: %v", question, err)
		}
	})
}
