package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"nous/internal/core"
	"nous/internal/ontology"
)

// ReadTriplesTSV parses curated triples from tab-separated lines of the form
//
//	subject \t predicate \t object [\t subjectType \t objectType]
//
// Blank lines and lines starting with '#' are skipped. This is the format
// YAGO-style dumps reduce to.
func ReadTriplesTSV(r io.Reader) ([]core.Triple, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []core.Triple
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) < 3 {
			return nil, fmt.Errorf("corpus: line %d: want at least 3 tab-separated fields, got %d", line, len(fields))
		}
		t := core.Triple{
			Subject:    strings.TrimSpace(fields[0]),
			Predicate:  strings.TrimSpace(fields[1]),
			Object:     strings.TrimSpace(fields[2]),
			Confidence: 1,
			Curated:    true,
			Provenance: core.Provenance{Source: "tsv"},
		}
		if len(fields) >= 5 {
			t.SubjectType = ontology.EntityType(strings.TrimSpace(fields[3]))
			t.ObjectType = ontology.EntityType(strings.TrimSpace(fields[4]))
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus: reading TSV: %w", err)
	}
	return out, nil
}

// jsonArticle is the wire format for article streams.
type jsonArticle struct {
	ID     string `json:"id"`
	Source string `json:"source"`
	Date   string `json:"date"`
	Title  string `json:"title"`
	Text   string `json:"text"`
}

// ReadArticlesJSON parses a JSON array of articles with id/source/date/
// title/text fields (date as YYYY-MM-DD).
func ReadArticlesJSON(r io.Reader) ([]Article, error) {
	var raw []jsonArticle
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("corpus: decoding articles: %w", err)
	}
	out := make([]Article, 0, len(raw))
	for i, ja := range raw {
		a := Article{ID: ja.ID, Source: ja.Source, Title: ja.Title, Text: ja.Text}
		if ja.Date != "" {
			t, err := time.Parse("2006-01-02", ja.Date)
			if err != nil {
				return nil, fmt.Errorf("corpus: article %d: bad date %q: %w", i, ja.Date, err)
			}
			a.Date = t
		}
		out = append(out, a)
	}
	return out, nil
}
