package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"nous/internal/temporal"
)

// ExportDOT writes a Graphviz rendering of the facts touching the given
// entities (or the whole KG when names is empty). Curated facts are drawn in
// red and extracted facts in blue with their confidence, matching the
// paper's Figure 2 color convention.
func (kg *KG) ExportDOT(w io.Writer, names ...string) error {
	facts := kg.selectFacts(names)
	var b strings.Builder
	b.WriteString("digraph nous {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	seen := map[string]bool{}
	for _, f := range facts {
		for _, n := range []string{f.Subject, f.Object} {
			if !seen[n] {
				seen[n] = true
				typ, _ := kg.EntityType(n)
				fmt.Fprintf(&b, "  %q [label=\"%s\\n(%s)\"];\n", n, escapeDOT(n), typ)
			}
		}
	}
	for _, f := range facts {
		color := "blue"
		label := fmt.Sprintf("%s p=%.2f", f.Predicate, f.Confidence)
		if f.Curated {
			color = "red"
			label = f.Predicate
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q, color=%s];\n", f.Subject, f.Object, label, color)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonFact is the wire form of a fact.
type jsonFact struct {
	Subject    string  `json:"subject"`
	Predicate  string  `json:"predicate"`
	Object     string  `json:"object"`
	Confidence float64 `json:"confidence"`
	Curated    bool    `json:"curated"`
	Source     string  `json:"source,omitempty"`
	DocID      string  `json:"doc,omitempty"`
	Sentence   string  `json:"sentence,omitempty"`
	Time       string  `json:"time,omitempty"`
}

// ExportJSON writes the selected facts as a JSON array.
func (kg *KG) ExportJSON(w io.Writer, names ...string) error {
	return kg.ExportJSONWindow(w, temporal.All(), names...)
}

// ExportJSONWindow is ExportJSON restricted to the window: curated facts
// always export, extracted facts only when their provenance time lies in the
// window. The unbounded window produces byte-identical output to ExportJSON.
func (kg *KG) ExportJSONWindow(w io.Writer, win temporal.Window, names ...string) error {
	facts := kg.selectFactsWindow(names, win)
	out := make([]jsonFact, 0, len(facts))
	for _, f := range facts {
		jf := jsonFact{
			Subject:    f.Subject,
			Predicate:  f.Predicate,
			Object:     f.Object,
			Confidence: f.Confidence,
			Curated:    f.Curated,
			Source:     f.Provenance.Source,
			DocID:      f.Provenance.DocID,
			Sentence:   f.Provenance.Sentence,
		}
		if !f.Provenance.Time.IsZero() {
			jf.Time = f.Provenance.Time.UTC().Format("2006-01-02")
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectFacts returns all facts when names is empty, otherwise the union of
// facts touching each named entity, de-duplicated and ordered by ID.
func (kg *KG) selectFacts(names []string) []Fact {
	return kg.selectFactsWindow(names, temporal.All())
}

// selectFactsWindow is selectFacts restricted to the window.
func (kg *KG) selectFactsWindow(names []string, win temporal.Window) []Fact {
	if len(names) == 0 {
		return kg.allFacts(win)
	}
	seen := map[FactID]bool{}
	var out []Fact
	for _, n := range names {
		for _, f := range kg.FactsAboutWindow(n, win) {
			if !seen[f.ID] {
				seen[f.ID] = true
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func escapeDOT(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
