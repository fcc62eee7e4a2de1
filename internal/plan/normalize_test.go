package plan

import (
	"math"
	"strings"
	"testing"

	"nous/internal/temporal"
)

func winDays(sinceDay, untilDay int64) temporal.Window {
	const day = 86400
	return temporal.Window{Since: sinceDay * day, Until: untilDay * day}
}

func TestNormalizeEqualPlansEqualStrings(t *testing.T) {
	a := DiffPlan("DJI", winDays(0, 10), winDays(10, 20))
	b := DiffPlan("DJI", winDays(0, 10), winDays(10, 20))
	if Normalize(a) != Normalize(b) {
		t.Fatalf("equal plans normalize differently:\n%s\n%s", Normalize(a), Normalize(b))
	}
	c := DiffPlan("GoPro", winDays(0, 10), winDays(10, 20))
	if Normalize(a) == Normalize(c) {
		t.Fatal("different entities share a normalized string")
	}
}

func TestNormalizeDistinguishesSubDayWindows(t *testing.T) {
	// Window.String renders at day granularity; the cache key must not.
	a := TrendingPlan(temporal.Window{Since: 1000, Until: 2000}, 5)
	b := TrendingPlan(temporal.Window{Since: 1000, Until: 2001}, 5)
	if Normalize(a) == Normalize(b) {
		t.Fatal("windows differing by one second share a normalized string")
	}
}

func TestNormalizeNeverCanonicalizesWindows(t *testing.T) {
	// Both are IsAll windows, but DiffAnswer JSON embeds the raw bounds, so
	// collapsing them would alias plans with different rendered answers.
	zero := temporal.Window{}
	full := temporal.Window{Since: math.MinInt64, Until: math.MaxInt64}
	a := DiffPlan("DJI", zero, winDays(0, 10))
	b := DiffPlan("DJI", full, winDays(0, 10))
	if Normalize(a) == Normalize(b) {
		t.Fatal("distinct representations of the unbounded window were collapsed")
	}
}

func TestNormalizeCoversTree(t *testing.T) {
	p, err := FactPlan("DJI", "acquired", "Aeros", winDays(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	s := Normalize(p)
	for _, frag := range []string{"v1|", "class=fact", "Pred(", "WF(", "Scan(", "fact_check"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("normalized %q missing %q", s, frag)
		}
	}
}

func TestCacheable(t *testing.T) {
	bounded := winDays(0, 10)
	cases := []struct {
		name string
		p    *Plan
		want bool
	}{
		{"diff", DiffPlan("DJI", bounded, winDays(10, 20)), true},
		{"trending backfill", TrendingPlan(bounded, 5), true},
		{"trending live", TrendingPlan(temporal.All(), 5), false},
		{"trending empty window", TrendingPlan(temporal.Empty(), 5), false},
		{"entity", EntityPlan("DJI", bounded, 5), false},
		{"patterns", PatternsPlan(5), false},
		{"nil", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Cacheable(tc.p); got != tc.want {
				t.Fatalf("Cacheable = %v, want %v", got, tc.want)
			}
		})
	}
}
