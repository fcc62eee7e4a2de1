package plan

import (
	"fmt"
	"strings"

	"nous/internal/temporal"
)

// Normalize renders a plan as a canonical string: the class, the request
// parameters the renderer reads, and the operator tree with every window as
// raw [since,until) int64 bounds (Window.String's day granularity would
// collide windows that differ by less than a day). Two executions produce
// byte-identical answers whenever their normalized plans and graph epochs
// match, which is what makes (epoch, Normalize(p)) a sound plan-result cache
// key.
func Normalize(p *Plan) string {
	var b strings.Builder
	b.WriteString("v1|class=")
	b.WriteString(p.Class)
	fmt.Fprintf(&b, "|s=%q|o=%q|p=%q|k=%d|w=", p.Subject, p.Object, p.Predicate, p.K)
	normWindow(&b, p.Window)
	b.WriteString("|wb=")
	normWindow(&b, p.WindowB)
	b.WriteString("|root=")
	normNode(&b, p.Root)
	return b.String()
}

// normWindow writes a window's raw bounds. Never canonicalizes: distinct
// representations of equivalent windows (the zero value vs the explicit
// full range, different inverted empties) may only cost a duplicate cache
// entry — collapsing them could alias plans whose rendered answers embed
// the raw bounds.
func normWindow(b *strings.Builder, w temporal.Window) {
	fmt.Fprintf(b, "[%d,%d)", w.Since, w.Until)
}

func normNode(b *strings.Builder, n Node) {
	if n == nil {
		b.WriteString("nil")
		return
	}
	switch t := n.(type) {
	case *Scan:
		fmt.Fprintf(b, "Scan(%s,s=%q,o=%q,p=%q,k=%d)", t.Source, t.Subject, t.Object, t.Predicate, t.K)
	case *WindowFilter:
		b.WriteString("WF(")
		normWindow(b, t.Window)
		b.WriteByte(',')
		normNode(b, t.Input)
		b.WriteByte(')')
	case *Rank:
		fmt.Fprintf(b, "Rank(%d,", t.K)
		normNode(b, t.Input)
		b.WriteByte(')')
	case *Summarize:
		fmt.Fprintf(b, "Sum(s=%q,w=", t.Subject)
		normWindow(b, t.Window)
		b.WriteByte(',')
		normNode(b, t.Input)
		b.WriteByte(')')
	case *Predict:
		fmt.Fprintf(b, "Pred(s=%q,p=%q,o=%q,", t.Subject, t.Predicate, t.Object)
		normNode(b, t.Input)
		b.WriteByte(')')
	case *PathExplain:
		fmt.Fprintf(b, "Path(s=%q,o=%q,p=%q,k=%d,w=", t.Subject, t.Object, t.Predicate, t.K)
		normWindow(b, t.Window)
		b.WriteByte(')')
	case *TrendScan:
		b.WriteString("Trend(w=")
		normWindow(b, t.Window)
		b.WriteByte(')')
	case *Diff:
		fmt.Fprintf(b, "Diff(e=%q,wa=", t.Entity)
		normWindow(b, t.WindowA)
		b.WriteString(",wb=")
		normWindow(b, t.WindowB)
		b.WriteByte(',')
		normNode(b, t.A)
		b.WriteByte(',')
		normNode(b, t.B)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "%T", n)
	}
}

// Cacheable reports whether p's result is a pure function of (graph epoch,
// normalized plan) — nothing in its evaluation may read the query clock or
// state outside the graph and its epoch-tracked derivatives. Two classes
// qualify today:
//
//   - diff: both sides read windowed graph/temporal-index state; rendering
//     never consults the clock.
//   - trending under a bounded, non-empty window: the scan reads the trend
//     table, which is written under the KG's write lock and read under its
//     read lock, so it is at or after the epoch the result is keyed by.
//     Live trending is anchored at the query clock (the wall clock until a
//     dated fact arrives), so it is not cacheable; nor are entity
//     summaries, whose activity sparkline is clock-anchored for
//     unbounded-until windows.
func Cacheable(p *Plan) bool {
	if p == nil || p.Root == nil {
		return false
	}
	switch p.Class {
	case "diff":
		return true
	case "trending":
		cacheable := false
		var walk func(n Node)
		walk = func(n Node) {
			if t, ok := n.(*TrendScan); ok {
				cacheable = t.Window.Bounded() && !t.Window.IsEmpty()
			}
			for _, in := range n.Inputs() {
				if in != nil {
					walk(in)
				}
			}
		}
		walk(p.Root)
		return cacheable
	}
	return false
}
