package prgate_test

import (
	"testing"

	"nous/internal/analysis/analysistest"
	"nous/internal/analysis/prgate"
)

func TestPRGate(t *testing.T) {
	analysistest.Run(t, "testdata", prgate.Analyzer,
		"nous/internal/qa", "nous/internal/analytics", "nous/internal/core")
}
