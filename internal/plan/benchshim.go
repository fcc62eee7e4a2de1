package plan

import (
	"nous/internal/core"
	"nous/internal/temporal"
)

// The names in this file have no caller in the system. They are kept only
// because the system benchmark's traced plan.optimize span still calls
// Optimize(p, &GraphStats{...}). Optimize returns its plan unchanged, so
// that span times qa.Lower alone. Delete the file once the benchmark drops
// the span.

// Cardinality is the type of Optimize's unused statistics argument.
type Cardinality interface{}

// GraphStats is the statistics view the benchmark still builds.
type GraphStats struct {
	KG             *core.KG
	TIndex         *temporal.Index
	TrendBucketSec int64
}

// Optimize returns p unchanged.
func Optimize(p *Plan, _ Cardinality) *Plan { return p }
