package nous_test

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"nous"
	"nous/internal/server"
)

// trendView is everything a pipeline answers off its trend table: live
// trending, the unbounded trending window and the sparklines of the
// entities that trend.
type trendView struct {
	Trending []nous.Trend
	Window   []nous.Trend
	Activity map[string][]int
}

func viewTrends(t *testing.T, p *nous.Pipeline) trendView {
	t.Helper()
	v := trendView{Trending: p.Trending(10), Activity: map[string][]int{}}
	a, err := p.TrendingWindow(nous.Window{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	v.Window = a.Trends
	for _, tr := range v.Trending {
		if tr.Kind != "entity" {
			continue
		}
		ans, err := p.About(tr.Name)
		if err != nil || ans.Entity == nil {
			t.Fatalf("About(%q): %v", tr.Name, err)
		}
		v.Activity[tr.Name] = ans.Entity.Activity
	}
	return v
}

// TestReopenedLeaderTrendsLikeUninterrupted: a durable pipeline reopened
// from its snapshot and WAL tail trends exactly as it did before it closed
// — live trending, the unbounded window and the entity sparklines.
func TestReopenedLeaderTrendsLikeUninterrupted(t *testing.T) {
	dir := t.TempDir()
	cfg, w, arts := smallPersistConfig()
	p, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SeedKG(p.KG()); err != nil {
		t.Fatal(err)
	}
	// Half the stream lands under the snapshot, half in the WAL tail.
	p.IngestAll(arts[:len(arts)/2])
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.IngestAll(arts[len(arts)/2:])
	want := viewTrends(t, p)
	if len(want.Trending) == 0 || len(want.Activity) == 0 {
		t.Fatalf("the uninterrupted leader trends nothing: %+v", want)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, err = nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := viewTrends(t, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened leader trends differently:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplicaTrendingAfterSnapshotBootstrap: a follower whose facts all
// came in its bootstrap snapshot serves the leader's trending.
func TestReplicaTrendingAfterSnapshotBootstrap(t *testing.T) {
	cfg, w, arts := smallPersistConfig()
	leader, err := nous.OpenWithOptions(t.TempDir(), w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := w.SeedKG(leader.KG()); err != nil {
		t.Fatal(err)
	}
	leader.IngestAll(arts)
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
	deadline := time.Now().Add(10 * time.Second)
	for f.Follower().Status().AppliedEpoch != leader.KG().Graph().Epoch() {
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: %+v", f.Follower().Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := viewTrends(t, leader)
	if len(want.Trending) == 0 {
		t.Fatal("the leader trends nothing")
	}
	if got := viewTrends(t, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica trends differently:\n got %+v\nwant %+v", got, want)
	}
}

// TestWindowEvictionLeavesTrends: with a stream window, facts evicted from
// the KG no longer count toward trending or the sparklines. A pipeline that
// holds only the surviving facts is the reference.
func TestWindowEvictionLeavesTrends(t *testing.T) {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Companies = 10
	wcfg.People = 10
	wcfg.Products = 10
	wcfg.Events = 80
	w := nous.GenerateWorld(wcfg)
	kg, err := w.LoadKG()
	if err != nil {
		t.Fatal(err)
	}
	cfg := nous.DefaultConfig()
	cfg.Stream.Window = 56 * 24 * time.Hour
	p := nous.NewPipeline(kg, cfg)
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(120))
	if st := p.IngestAll(arts); st.FactsEvicted == 0 {
		t.Fatalf("windowed run evicted nothing: %+v", st)
	}

	ref := nous.NewPipeline(nous.NewKG(w.Ontology), nous.DefaultConfig())
	var survivors []nous.Triple
	for _, f := range kg.AllFacts() {
		survivors = append(survivors, f.Triple)
	}
	_, errs := ref.KG().AddFacts(survivors)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("surviving fact %d: %v", i, err)
		}
	}
	want := viewTrends(t, ref)
	if len(want.Trending) == 0 {
		t.Fatal("the surviving facts trend nothing")
	}
	if got := viewTrends(t, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("evicted facts still count:\n got %+v\nwant %+v", got, want)
	}
	// The sparklines anchored anywhere in the stream, where the evicted
	// facts were dated, count none of them.
	for name := range want.Activity {
		for _, a := range arts {
			until := nous.Window{Since: math.MinInt64, Until: a.Date.Unix()}
			pa, err1 := p.AboutWindow(name, until)
			ra, err2 := ref.AboutWindow(name, until)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(pa.Entity.Activity, ra.Entity.Activity) {
				t.Fatalf("%s's sparkline up to %s = %v, want %v", name, a.Date, pa.Entity.Activity, ra.Entity.Activity)
			}
		}
	}
}
