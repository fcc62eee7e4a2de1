package nous_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"nous"
	"nous/internal/server"
)

// windowedPatternsConfig is a stream long enough for a one-year window to
// evict extracted facts, with the miner's count window set to ws.
func windowedPatternsConfig(ws int) (nous.Config, *nous.World, []nous.Article) {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Seed = 7
	wcfg.Events = 600
	w := nous.GenerateWorld(wcfg)
	cfg := nous.DefaultConfig()
	cfg.Stream.Window = 365 * 24 * time.Hour
	cfg.Miner.WindowSize = ws
	return cfg, w, nous.GenerateArticles(w, nous.DefaultArticleConfig(300))
}

// TestPatternsAgreeAcrossPaths: under a stream window, the live leader, the
// same leader reopened from its snapshot and WAL tail, and a follower
// bootstrapped from a mid-stream snapshot mine the same closed patterns. The
// miner's window is the facts the KG holds, so the three agree at equal fact
// logs — with the default count window, which holds every fact here, and
// with one that binds. The binding one ends among stored facts, so a
// reopened miner whose window did not end at the graph's edge allocator
// would hold facts the live one has slid past.
func TestPatternsAgreeAcrossPaths(t *testing.T) {
	for _, tc := range []struct {
		ws    int
		binds bool
	}{{nous.DefaultConfig().Miner.WindowSize, false}, {80, true}} {
		ws := tc.ws
		t.Run(fmt.Sprintf("WindowSize=%d", ws), func(t *testing.T) {
			cfg, w, arts := windowedPatternsConfig(ws)
			dir := t.TempDir()
			leader, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.SeedKG(leader.KG()); err != nil {
				t.Fatal(err)
			}
			// Half the stream lands under the snapshot the follower
			// bootstraps from; the rest reaches it through the WAL tail.
			leader.IngestAll(arts[:len(arts)/2])
			if err := leader.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(server.New(leader))
			defer ts.Close()
			f, err := nous.Follow(context.Background(), ts.URL, w.Ontology, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			st := leader.IngestAll(arts[len(arts)/2:])
			if st.FactsEvicted == 0 {
				t.Fatalf("windowed run evicted nothing: %+v", st)
			}
			// The stream's first articles, long evicted, come again: their
			// facts are stored and evicted at once, so the newest fact IDs
			// are gone and the edge allocator is ahead of every stored fact.
			if late := leader.IngestAll(arts[:20]); late.Accepted == st.Accepted ||
				late.FactsEvicted-st.FactsEvicted != late.Accepted-st.Accepted {
				t.Fatalf("the late article's facts were not all evicted: before %+v, after %+v", st, late)
			}
			if n := leader.KG().NumFacts(); (n > ws) != tc.binds {
				t.Fatalf("%d facts under a count window of %d: binds = %v, want %v", n, ws, n > ws, tc.binds)
			}
			deadline := time.Now().Add(10 * time.Second)
			for f.Follower().Status().AppliedEpoch != leader.KG().Graph().Epoch() {
				if time.Now().After(deadline) {
					t.Fatalf("replica never converged: %+v", f.Follower().Status())
				}
				time.Sleep(5 * time.Millisecond)
			}

			want := leader.Patterns(0)
			if len(want) == 0 {
				t.Fatal("the leader mines nothing")
			}
			if got := f.Patterns(0); !reflect.DeepEqual(got, want) {
				t.Fatalf("follower mines %d patterns, leader %d:\n got %v\nwant %v", len(got), len(want), got, want)
			}
			if err := leader.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if got := reopened.Patterns(0); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened leader mines %d patterns, live leader %d:\n got %v\nwant %v", len(got), len(want), got, want)
			}
		})
	}
}

// TestDuplicateArticleDoesNotMoveTheWindow: the window's clock is the newest
// dated fact in the KG, so a later-dated article whose facts are all
// already known changes nothing — no fact is evicted and the miner keeps
// its patterns. The restated article is a KB report, which re-reports a
// curated fact; the stream before it carries event reports only.
func TestDuplicateArticleDoesNotMoveTheWindow(t *testing.T) {
	cfg, w, arts := windowedPatternsConfig(nous.DefaultConfig().Miner.WindowSize)
	curated := map[[3]string]bool{}
	for _, c := range w.Curated {
		curated[[3]string{c.Subject, c.Predicate, c.Object}] = true
	}
	var events []nous.Article
	var report *nous.Article
	var newest time.Time
	for i, a := range arts {
		if tr := a.Truth[0]; curated[[3]string{tr.Subject, tr.Predicate, tr.Object}] {
			if report == nil {
				report = &arts[i]
			}
			continue
		}
		events = append(events, a)
		if a.Date.After(newest) {
			newest = a.Date
		}
	}
	if report == nil {
		t.Fatal("the stream has no KB report")
	}
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	p := nous.NewPipeline(kg, cfg)
	before := p.IngestAll(events)
	facts, patterns := kg.AllFacts(), p.Patterns(0)
	if before.Accepted == before.FactsEvicted {
		t.Fatalf("the window kept no extracted fact: %+v", before)
	}

	dup := *report
	dup.Date = newest.AddDate(1, 0, 0)
	p.Ingest(dup)
	after := p.Stats()
	if after.Accepted != before.Accepted || after.Mapped == before.Mapped {
		t.Fatalf("the KB report is not all duplicates: before %+v, after %+v", before, after)
	}
	if after.FactsEvicted != before.FactsEvicted {
		t.Fatalf("a duplicate article evicted %d facts", after.FactsEvicted-before.FactsEvicted)
	}
	if got := kg.AllFacts(); !reflect.DeepEqual(got, facts) {
		t.Fatalf("the KG changed: %d facts, was %d", len(got), len(facts))
	}
	if got := p.Patterns(0); !reflect.DeepEqual(got, patterns) {
		t.Fatalf("the miner changed: %d patterns, was %d", len(got), len(patterns))
	}
}
