// Package qa is NOUS's question language: the five classes of
// natural-language-like queries of Figure 5 — trending, entity,
// relationship (explanatory), pattern and fact queries — plus the temporal
// diff class, parsed from text and lowered into the logical plans that
// internal/plan's executor runs against the dynamic KG.
package qa

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"nous/internal/temporal"
)

// ErrParse marks questions that cannot be parsed or whose temporal
// qualifiers are invalid — client errors, as opposed to execution failures.
// Match with errors.Is.
var ErrParse = errors.New("qa: unparseable question")

// parseError is an error that errors.Is-matches ErrParse while keeping a
// specific message.
type parseError struct{ msg string }

func (e *parseError) Error() string        { return e.msg }
func (e *parseError) Is(target error) bool { return target == ErrParse }

func parseErrf(format string, args ...any) error {
	return &parseError{msg: fmt.Sprintf(format, args...)}
}

// Class is one of the supported query classes.
type Class string

// The five query classes of Fig 5, plus the temporal diff class the query
// planner adds ("what changed about X between 2015 and 2016").
const (
	ClassTrending     Class = "trending"
	ClassEntity       Class = "entity"
	ClassRelationship Class = "relationship"
	ClassPattern      Class = "pattern"
	ClassFact         Class = "fact"
	ClassDiff         Class = "diff"
)

// Query is a parsed question.
type Query struct {
	Class Class
	// Entity arguments (surface forms; resolution happens at execution).
	Subject string
	Object  string
	// Predicate constraint for relationship/fact queries (ontology name).
	Predicate string
	// K bounds result size where applicable.
	K int
	// Window is the temporal scope parsed from qualifiers such as "last
	// week", "in 2015", "between 2014 and 2016" or "as of 2015-06-30". The
	// zero Window is unbounded (timeless query). Diff queries use it as the
	// first ("before") window.
	Window temporal.Window
	// WindowB is the second ("after") window of a diff query; unused (zero)
	// for every other class.
	WindowB temporal.Window
}

// verbToPredicate maps question verbs to ontology predicates.
var verbToPredicate = map[string]string{
	"acquire": "acquired", "acquired": "acquired", "buy": "acquired", "bought": "acquired",
	"manufacture": "manufactures", "manufactures": "manufactures", "make": "manufactures", "makes": "manufactures",
	"develop": "develops", "develops": "develops",
	"deploy": "deploys", "deploys": "deploys", "use": "deploys", "uses": "deploys", "employ": "deploys",
	"invest": "invests", "invests": "invests",
	"partner": "partnersWith", "partners": "partnersWith",
	"regulate": "regulates", "regulates": "regulates",
	"ban": "bans", "banned": "bans", "bans": "bans",
	"approve": "approves", "approved": "approves", "approves": "approves",
	"cite": "cites", "cites": "cites",
	"author": "authorOf", "authored": "authorOf", "wrote": "authorOf",
	"found": "foundedBy", "founded": "foundedBy",
	"supply": "suppliesTo", "supplies": "suppliesTo",
	"compete": "competesWith", "competes": "competesWith",
	"hire": "worksFor", "hired": "worksFor",
}

var (
	reTrending = regexp.MustCompile(`(?i)^\s*(?:what(?:'s| is| was)?\s+)?(?:show\s+(?:me\s+)?)?trending\b|^\s*what\s+(?:is|was)\s+trending`)
	reEntity   = regexp.MustCompile(`(?i)^\s*(?:tell me about|who is|what is|describe|summarize)\s+(.+?)\s*\??\s*$`)
	reRelate   = regexp.MustCompile(`(?i)^\s*(?:how|why)\s+(?:is|are|was|were|does|do|did|would|may|might)?\s*(.+?)\s+(?:related|connected|linked|relate|connect)\s*(?:to)?\s+(.+?)(?:\s+via\s+(\w+))?\s*\??\s*$`)
	reExplain  = regexp.MustCompile(`(?i)^\s*explain\s+(?:the\s+)?(?:relationship|connection|link)\s+between\s+(.+?)\s+and\s+(.+?)(?:\s+via\s+(\w+))?\s*\??\s*$`)
	rePattern  = regexp.MustCompile(`(?i)\b(patterns?|motifs?)\b`)
	reDid      = regexp.MustCompile(`(?i)^\s*(?:did|does|has|have|is|was)\s+(.+?)\s*\??\s*$`)
	reToken    = regexp.MustCompile(`\S+`)
	reWho      = regexp.MustCompile(`(?i)^\s*(?:who|what|which\s+\w+)\s+(\w+)\s+(?:the\s+)?(.+?)\s*\??\s*$`)
	reWhatDoes = regexp.MustCompile(`(?i)^\s*(?:what|whom|who)\s+(?:does|did|do|has|have)\s+(.+?)\s+(\w+)\s*\??\s*$`)
	reWhere    = regexp.MustCompile(`(?i)^\s*where\s+is\s+(.+?)\s+(?:headquartered|based|located)\s*\??\s*$`)
)

// Temporal qualifier patterns. A date is a bare year or an ISO day; the
// qualifier is stripped from the question before classification, so
// "Tell me about DJI last week" classifies exactly like "Tell me about DJI".
const reDate = `(\d{4}(?:-\d{2}-\d{2})?)`

// Diff question forms. They are matched against the raw question *before*
// the single-window qualifier extraction, because a diff carries two
// temporal arguments ("between 2015 and 2016" = compare the two periods,
// not one merged window).
var (
	reDiffBetween = regexp.MustCompile(`(?i)^\s*what(?:\s+has\s+changed|\s+changed|\s+is\s+new|'s\s+new|\s+is\s+different|'s\s+different)\s*(?:about\s+(.+?))?\s+between\s+` + reDate + `\s+and\s+` + reDate + `\s*\??\s*$`)
	reDiffHow     = regexp.MustCompile(`(?i)^\s*how\s+(?:did|has)\s+(.+?)\s+changed?\s+between\s+` + reDate + `\s+and\s+` + reDate + `\s*\??\s*$`)
	reDiffSince   = regexp.MustCompile(`(?i)^\s*what(?:\s+has\s+changed|\s+changed|\s+is\s+new|'s\s+new)\s*(?:about\s+(.+?))?\s+since\s+` + reDate + `\s*\??\s*$`)
)

var (
	reBetween  = regexp.MustCompile(`(?i)\b(?:between|from)\s+` + reDate + `\s+(?:and|to)\s+` + reDate + `\b`)
	reAsOf     = regexp.MustCompile(`(?i)\bas\s+of\s+` + reDate + `\b`)
	reSince    = regexp.MustCompile(`(?i)\bsince\s+` + reDate + `\b`)
	reBefore   = regexp.MustCompile(`(?i)\bbefore\s+` + reDate + `\b`)
	reInYear   = regexp.MustCompile(`(?i)\b(?:in|during)\s+(\d{4})\b`)
	reLastUnit = regexp.MustCompile(`(?i)\b(?:in\s+|over\s+|during\s+)?the\s+(?:last|past)\s+(day|week|month|year)\b|\b(?:last|past)\s+(day|week|month|year)\b`)
	reLastN    = regexp.MustCompile(`(?i)\b(?:in\s+|over\s+|during\s+)?the\s+(?:last|past)\s+(\d+)\s+(days?|weeks?|months?|years?)\b|\b(?:last|past)\s+(\d+)\s+(days?|weeks?|months?|years?)\b`)
)

// parseDate resolves a qualifier date. A bare year resolves to Jan 1 of that
// year; end selects the exclusive end of the period (the next year / day).
func parseDate(s string, end bool) (time.Time, error) {
	if len(s) == 4 {
		y, err := strconv.Atoi(s)
		if err != nil {
			return time.Time{}, parseErrf("qa: bad year %q", s)
		}
		if end {
			y++
		}
		return time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC), nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return time.Time{}, parseErrf("qa: bad date %q (want YYYY or YYYY-MM-DD)", s)
	}
	if end {
		t = t.AddDate(0, 0, 1)
	}
	return t, nil
}

// extractWindow finds at most one temporal qualifier in the question,
// resolves it against now, and returns the question with the qualifier
// removed. Questions without a qualifier return the unbounded window.
func extractWindow(q string, now time.Time) (string, temporal.Window, error) {
	strip := func(loc []int) string {
		rest := q[:loc[0]] + " " + q[loc[1]:]
		return strings.Join(strings.Fields(rest), " ")
	}
	pick := func(groups []string) string {
		for _, g := range groups {
			if g != "" {
				return g
			}
		}
		return ""
	}
	if m := reBetween.FindStringSubmatchIndex(q); m != nil {
		a, errA := parseDate(q[m[2]:m[3]], false)
		b, errB := parseDate(q[m[4]:m[5]], true)
		if errA != nil {
			return q, temporal.Window{}, errA
		}
		if errB != nil {
			return q, temporal.Window{}, errB
		}
		if !a.Before(b) {
			return q, temporal.Window{}, parseErrf("qa: empty time range %q to %q", q[m[2]:m[3]], q[m[4]:m[5]])
		}
		return strip(m[:2]), temporal.Between(a, b), nil
	}
	if m := reAsOf.FindStringSubmatchIndex(q); m != nil {
		t, err := parseDate(q[m[2]:m[3]], true)
		if err != nil {
			return q, temporal.Window{}, err
		}
		return strip(m[:2]), temporal.UntilTime(t), nil
	}
	if m := reSince.FindStringSubmatchIndex(q); m != nil {
		t, err := parseDate(q[m[2]:m[3]], false)
		if err != nil {
			return q, temporal.Window{}, err
		}
		return strip(m[:2]), temporal.SinceTime(t), nil
	}
	if m := reBefore.FindStringSubmatchIndex(q); m != nil {
		t, err := parseDate(q[m[2]:m[3]], false)
		if err != nil {
			return q, temporal.Window{}, err
		}
		return strip(m[:2]), temporal.Window{Since: math.MinInt64, Until: t.Unix()}, nil
	}
	if m := reInYear.FindStringSubmatchIndex(q); m != nil {
		a, _ := parseDate(q[m[2]:m[3]], false)
		b, _ := parseDate(q[m[2]:m[3]], true)
		return strip(m[:2]), temporal.Between(a, b), nil
	}
	group := func(m []int, i int) string {
		if m[2*i] < 0 {
			return ""
		}
		return q[m[2*i]:m[2*i+1]]
	}
	if m := reLastN.FindStringSubmatchIndex(q); m != nil {
		n, err := strconv.Atoi(pick([]string{group(m, 1), group(m, 3)}))
		if err != nil || n <= 0 {
			return q, temporal.Window{}, parseErrf("qa: bad duration in %q", q[m[0]:m[1]])
		}
		unit := strings.TrimSuffix(strings.ToLower(pick([]string{group(m, 2), group(m, 4)})), "s")
		return strip(m[:2]), lastWindow(now, n, unit), nil
	}
	if m := reLastUnit.FindStringSubmatchIndex(q); m != nil {
		unit := strings.ToLower(pick([]string{group(m, 1), group(m, 2)}))
		return strip(m[:2]), lastWindow(now, 1, unit), nil
	}
	return q, temporal.Window{}, nil
}

// lastWindow is the window of the last n days/weeks/months/years ending now
// (inclusive of now). Endpoints are quantized to the minute so repeated
// relative questions under a ticking clock share one (epoch, window) cache
// key instead of producing a fresh windowed-PageRank artifact every second.
func lastWindow(now time.Time, n int, unit string) temporal.Window {
	var since time.Time
	switch unit {
	case "day":
		since = now.AddDate(0, 0, -n)
	case "week":
		since = now.AddDate(0, 0, -7*n)
	case "month":
		since = now.AddDate(0, -n, 0)
	default: // year
		since = now.AddDate(-n, 0, 0)
	}
	return temporal.Window{Since: floorMinute(since.Unix()), Until: floorMinute(now.Unix()) + 60}
}

// floorMinute rounds a unix timestamp down to the minute (floor division,
// correct for pre-1970 values too).
func floorMinute(ts int64) int64 {
	m := ts / 60
	if ts%60 != 0 && ts < 0 {
		m--
	}
	return m * 60
}

// Parse classifies a question into one of the five classes, resolving
// relative temporal qualifiers against the wall clock. It returns an error
// (matching ErrParse) for text it cannot classify.
func Parse(question string) (Query, error) {
	return ParseAt(question, time.Now())
}

// ParseAt is Parse with an explicit reference time for relative qualifiers
// ("last week" is resolved against now).
func ParseAt(question string, now time.Time) (Query, error) {
	q := strings.TrimSpace(question)
	if q == "" {
		return Query{}, parseErrf("qa: empty question")
	}
	// Diff questions first: they carry two temporal arguments, which the
	// single-window qualifier stripping below would merge into one.
	if dq, ok, err := parseDiff(q); err != nil {
		return Query{}, err
	} else if ok {
		return dq, nil
	}
	q, window, err := extractWindow(q, now)
	if err != nil {
		return Query{}, err
	}
	parsed, err := classify(q, question)
	if err != nil {
		return Query{}, err
	}
	parsed.Window = window
	return parsed, nil
}

// periodOf resolves one diff date argument to the window it denotes: a bare
// year covers that year, an ISO day covers that day.
func periodOf(s string) (temporal.Window, error) {
	a, err := parseDate(s, false)
	if err != nil {
		return temporal.Window{}, err
	}
	b, err := parseDate(s, true)
	if err != nil {
		return temporal.Window{}, err
	}
	return temporal.Between(a, b), nil
}

// parseDiff recognizes the temporal diff question forms:
//
//	What changed (about X)? between A and B   — compare period A to period B
//	How did X change between A and B
//	What is new (about X)? since D            — compare (-inf, D) to [D, +inf)
//
// ok is false when the question is not a diff form at all.
func parseDiff(q string) (Query, bool, error) {
	var entity, dateA, dateB string
	if m := reDiffBetween.FindStringSubmatch(q); m != nil {
		entity, dateA, dateB = m[1], m[2], m[3]
	} else if m := reDiffHow.FindStringSubmatch(q); m != nil {
		entity, dateA, dateB = m[1], m[2], m[3]
	} else if m := reDiffSince.FindStringSubmatch(q); m != nil {
		t, err := parseDate(m[2], false)
		if err != nil {
			return Query{}, true, err
		}
		return Query{
			Class:   ClassDiff,
			Subject: cleanArg(m[1]),
			Window:  temporal.UntilTime(t),
			WindowB: temporal.SinceTime(t),
		}, true, nil
	} else {
		return Query{}, false, nil
	}

	wa, err := periodOf(dateA)
	if err != nil {
		return Query{}, true, err
	}
	wb, err := periodOf(dateB)
	if err != nil {
		return Query{}, true, err
	}
	if wa.Since >= wb.Since {
		return Query{}, true, parseErrf("qa: diff range %q to %q is not increasing", dateA, dateB)
	}
	return Query{Class: ClassDiff, Subject: cleanArg(entity), Window: wa, WindowB: wb}, true, nil
}

// classify maps the (qualifier-stripped) question onto one of the five
// classes. original is the untouched question, used in error messages.
func classify(q, original string) (Query, error) {

	if reTrending.MatchString(q) {
		return Query{Class: ClassTrending, K: 10}, nil
	}
	if rePattern.MatchString(q) {
		return Query{Class: ClassPattern, K: 10}, nil
	}
	if m := reRelate.FindStringSubmatch(q); m != nil {
		return Query{Class: ClassRelationship, Subject: cleanArg(m[1]), Object: cleanArg(m[2]), Predicate: strings.TrimSpace(m[3]), K: 3}, nil
	}
	if m := reExplain.FindStringSubmatch(q); m != nil {
		return Query{Class: ClassRelationship, Subject: cleanArg(m[1]), Object: cleanArg(m[2]), Predicate: strings.TrimSpace(m[3]), K: 3}, nil
	}
	if m := reWhere.FindStringSubmatch(q); m != nil {
		return factOf(original, Query{Class: ClassFact, Subject: cleanArg(m[1]), Predicate: "headquarteredIn"})
	}
	if m := reDid.FindStringSubmatch(q); m != nil {
		if fact, ok := parseDid(m[1]); ok {
			return fact, nil
		}
	}
	if m := reWhatDoes.FindStringSubmatch(q); m != nil {
		if pred, ok := verbToPredicate[strings.ToLower(m[2])]; ok {
			return factOf(original, Query{Class: ClassFact, Subject: cleanArg(m[1]), Predicate: pred})
		}
	}
	if m := reWho.FindStringSubmatch(q); m != nil {
		if pred, ok := verbToPredicate[strings.ToLower(m[1])]; ok {
			return factOf(original, Query{Class: ClassFact, Predicate: pred, Object: cleanArg(m[2])})
		}
	}
	if m := reEntity.FindStringSubmatch(q); m != nil {
		return Query{Class: ClassEntity, Subject: cleanArg(m[1]), K: 10}, nil
	}
	return Query{}, parseErrf("qa: cannot classify question %q", original)
}

// factOf rejects a one-argument fact question whose argument cleanArg
// emptied (`Who acquired ""?`): there is nothing to resolve, so it is the
// client's error.
func factOf(original string, q Query) (Query, error) {
	if q.Subject == "" && q.Object == "" {
		return Query{}, parseErrf("qa: empty argument in %q", original)
	}
	return q, nil
}

// parseDid splits the body of a "Did S verb O?" question. Subjects and
// objects may be several words long ("Parrot SA", "Aeros Labs"), so every
// interior word is tried as the verb, left to right. Entity names are
// capitalized and verbs are not, so the first word that names an ontology
// predicate and is written in lower case wins ("Did Apex Supply acquire
// DJI?" asks about acquired, not suppliesTo); when no such word is
// lower case, as in an all-caps question, the first that names a predicate
// wins. A leading "the" is dropped from the object. A subject or object
// that cleanArg empties (`Did "" acquire ""?`) is not a did-form.
func parseDid(body string) (Query, bool) {
	words := reToken.FindAllStringIndex(body, -1)
	word := func(i int) string { return body[words[i][0]:words[i][1]] }
	verb, pred := -1, ""
	for i := 1; i+1 < len(words); i++ {
		lower := strings.ToLower(word(i))
		p, ok := verbToPredicate[lower]
		if !ok {
			continue
		}
		if verb < 0 {
			verb, pred = i, p
		}
		if word(i) == lower {
			verb, pred = i, p
			break
		}
	}
	if verb < 0 {
		return Query{}, false
	}
	obj := verb + 1
	if obj+1 < len(words) && strings.EqualFold(word(obj), "the") {
		obj++
	}
	subject, object := cleanArg(body[:words[verb-1][1]]), cleanArg(body[words[obj][0]:])
	if subject == "" || object == "" {
		return Query{}, false
	}
	return Query{Class: ClassFact, Subject: subject, Predicate: pred, Object: object}, true
}

func cleanArg(s string) string {
	s = strings.TrimSpace(s)
	s = strings.Trim(s, `"'`)
	s = strings.TrimSuffix(s, "?")
	s = strings.TrimSuffix(s, ".")
	return strings.TrimSpace(s)
}
