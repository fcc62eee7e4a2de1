package core

import "nous/internal/temporal"

// Stats summarises the quality-related statistics the NOUS demo surfaces
// (demo feature 2: "summarization of quality-related statistics such as
// confidence distributions").
type Stats struct {
	Entities       int
	Facts          int
	CuratedFacts   int
	ExtractedFacts int
	// PredicateCounts maps predicate -> fact count.
	PredicateCounts map[string]int
	// SourceCounts maps provenance source -> fact count.
	SourceCounts map[string]int
	// ConfidenceHistogram has 10 buckets: [0,0.1), [0.1,0.2), … [0.9,1.0].
	ConfidenceHistogram [10]int
	// MeanConfidence over extracted facts (curated facts are pinned at 1).
	MeanConfidence float64
}

// Stats computes the current quality statistics.
func (kg *KG) Stats() Stats {
	kg.mu.RLock()
	defer kg.mu.RUnlock()
	// The scan's ID order fixes the float summation order, so equal graphs
	// report bit-equal means whatever order their slabs were filled in.
	facts := kg.factsLocked(kg.g.ScanEdges, temporal.All())
	s := Stats{
		Entities:        kg.g.NumNamed(),
		Facts:           len(facts),
		PredicateCounts: make(map[string]int),
		SourceCounts:    make(map[string]int),
	}
	sum, n := 0.0, 0
	for _, f := range facts {
		s.PredicateCounts[f.Predicate]++
		s.SourceCounts[f.Provenance.Source]++
		if f.Curated {
			s.CuratedFacts++
		} else {
			s.ExtractedFacts++
			sum += f.Confidence
			n++
		}
		b := int(f.Confidence * 10)
		if b > 9 {
			b = 9
		}
		if b < 0 {
			b = 0
		}
		s.ConfidenceHistogram[b]++
	}
	if n > 0 {
		s.MeanConfidence = sum / float64(n)
	}
	return s
}
