package disambig

import (
	"fmt"
	"testing"

	"nous/internal/core"
	"nous/internal/ontology"
)

// testKG builds a KG with two entities sharing the alias "Apex":
// Apex Robotics (drone world, well connected to DJI) and Apex Media
// (advertising world). A popularity skew favors Apex Media.
func testKG(t *testing.T) *core.KG {
	t.Helper()
	kg := core.NewKG(nil)
	kg.AddEntity("Apex Robotics", ontology.TypeCompany, "Apex")
	kg.AddEntity("Apex Media Group", ontology.TypeCompany, "Apex")
	kg.AddEntity("DJI", ontology.TypeCompany)
	kg.AddEntity("Shenzhen", ontology.TypeCity)
	kg.AddEntity("AdWorld", ontology.TypeCompany)

	facts := []core.Triple{
		{Subject: "Apex Robotics", Predicate: "competesWith", Object: "DJI"},
		{Subject: "Apex Robotics", Predicate: "develops", Object: "Obstacle Avoidance"},
		{Subject: "Apex Robotics", Predicate: "manufactures", Object: "Inspection Drone 1"},
		{Subject: "DJI", Predicate: "headquarteredIn", Object: "Shenzhen"},
		// Apex Media is more popular (more incoming links).
		{Subject: "AdWorld", Predicate: "partnersWith", Object: "Apex Media Group"},
		{Subject: "BroadcastCo", Predicate: "partnersWith", Object: "Apex Media Group"},
		{Subject: "TVNet", Predicate: "partnersWith", Object: "Apex Media Group"},
		{Subject: "PaperCo", Predicate: "partnersWith", Object: "Apex Media Group"},
	}
	for _, f := range facts {
		f.Confidence = 1
		f.Curated = true
		if _, err := kg.AddFact(f); err != nil {
			t.Fatal(err)
		}
	}
	return kg
}

func TestContextBeatsPrior(t *testing.T) {
	kg := testKG(t)
	l := NewLinker(kg, DefaultConfig())

	// Drone-flavored context should pick Apex Robotics even though Apex
	// Media is more popular.
	r := l.LinkOne(Mention{Surface: "Apex", Context: []string{"drone", "inspection", "obstacle", "avoidance", "quadcopter"}})
	if r.Entity != "Apex Robotics" {
		t.Fatalf("drone context resolved to %q", r.Entity)
	}
	if !r.Ambiguous {
		t.Error("mention should be flagged ambiguous")
	}

	// Advertising context picks the media company.
	r = l.LinkOne(Mention{Surface: "Apex", Context: []string{"advertising", "broadcast", "television", "media"}})
	if r.Entity != "Apex Media Group" {
		t.Fatalf("media context resolved to %q", r.Entity)
	}
}

func TestPriorOnlyBaselinePicksPopular(t *testing.T) {
	kg := testKG(t)
	l := NewLinker(kg, DefaultConfig())
	r := l.LinkPriorOnly("Apex")
	if r.Entity != "Apex Media Group" {
		t.Fatalf("prior-only = %q, want the popular entity", r.Entity)
	}
}

func TestJointCoherence(t *testing.T) {
	kg := testKG(t)
	l := NewLinker(kg, DefaultConfig())
	// A document mentioning both DJI and Apex with thin context: coherence
	// with DJI should pull Apex toward Apex Robotics (they share edges).
	rs := l.Link([]Mention{
		{Surface: "DJI", Context: []string{"market"}},
		{Surface: "Apex", Context: []string{"market"}},
	})
	if rs[0].Entity != "DJI" {
		t.Fatalf("DJI resolved to %q", rs[0].Entity)
	}
	if rs[1].Entity != "Apex Robotics" {
		t.Fatalf("coherence failed: Apex resolved to %q", rs[1].Entity)
	}
}

func TestUnknownMention(t *testing.T) {
	kg := testKG(t)
	l := NewLinker(kg, DefaultConfig())
	r := l.LinkOne(Mention{Surface: "Zorblatt Industries", Context: []string{"drone"}})
	if r.Entity != "" {
		t.Fatalf("unknown mention resolved to %q", r.Entity)
	}
}

func TestUnambiguousMention(t *testing.T) {
	kg := testKG(t)
	l := NewLinker(kg, DefaultConfig())
	r := l.LinkOne(Mention{Surface: "DJI", Context: nil})
	if r.Entity != "DJI" || r.Ambiguous {
		t.Fatalf("result = %+v", r)
	}
}

func TestEveryMentionKeepsACandidate(t *testing.T) {
	kg := testKG(t)
	l := NewLinker(kg, DefaultConfig())
	rs := l.Link([]Mention{
		{Surface: "Apex", Context: []string{"drone"}},
		{Surface: "Apex", Context: []string{"media"}},
		{Surface: "DJI"},
	})
	for _, r := range rs {
		if r.Entity == "" {
			t.Fatalf("mention %q lost all candidates: %+v", r.Surface, rs)
		}
	}
}

// priorLag mirrors analytics' staleness budget for the popularity prior.
const priorLag = 256

// TestRefreshPriorAfterUpdates: the prior follows the graph. Within its
// staleness budget the old prior is still served; once more than priorLag
// mutations have passed, the boosted entity wins.
func TestRefreshPriorAfterUpdates(t *testing.T) {
	kg := testKG(t)
	l := NewLinker(kg, DefaultConfig())
	before := l.LinkPriorOnly("Apex").Entity
	from := kg.Graph().Epoch()

	// Massively boost Apex Robotics's popularity with in-links from many
	// distinct sources, and keep adding them until the budget has passed.
	addInLink := func(i int) {
		if _, err := kg.AddFact(core.Triple{
			Subject: fmt.Sprintf("NewCo %d", i), Predicate: "partnersWith",
			Object: "Apex Robotics", Confidence: 1, Curated: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	for ; i < 12; i++ {
		addInLink(i)
	}
	if got := l.LinkPriorOnly("Apex").Entity; got != before {
		t.Fatalf("prior changed inside its staleness budget: %q -> %q", before, got)
	}
	for ; kg.Graph().Epoch()-from <= priorLag; i++ {
		addInLink(i)
	}
	after := l.LinkPriorOnly("Apex").Entity
	if before == after {
		t.Fatalf("prior did not refresh: before=%q after=%q", before, after)
	}
	if after != "Apex Robotics" {
		t.Fatalf("after refresh = %q", after)
	}
}

func BenchmarkLinkJoint(b *testing.B) {
	kg := core.NewKG(nil)
	kg.AddEntity("Apex Robotics", ontology.TypeCompany, "Apex")
	kg.AddEntity("Apex Media Group", ontology.TypeCompany, "Apex")
	for i := 0; i < 50; i++ {
		kg.AddFact(core.Triple{Subject: "Apex Robotics", Predicate: "partnersWith",
			Object: "DJI", Confidence: 1, Curated: true})
	}
	l := NewLinker(kg, DefaultConfig())
	ms := []Mention{
		{Surface: "Apex", Context: []string{"drone", "inspection"}},
		{Surface: "DJI", Context: []string{"drone"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Link(ms)
	}
}
