package nous_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nous"
	"nous/internal/server"
)

// tookMS matches the one field of an answer that depends on timing.
var tookMS = regexp.MustCompile(`"took_ms":[0-9.e+-]+`)

// askRaw answers q through base's /api/v1/ask, with took_ms normalized.
func askRaw(t *testing.T, base, q string) []byte {
	t.Helper()
	res, err := http.Get(base + "/api/v1/ask?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", q, res.StatusCode, b)
	}
	return tookMS.ReplaceAll(b, []byte(`"took_ms":0`))
}

// postFacts writes facts (the JSON array body of POST /api/v1/facts)
// through the leader's API.
func postFacts(t *testing.T, base, facts string) {
	t.Helper()
	res, err := http.Post(base+"/api/v1/facts", "application/json", strings.NewReader(`{"facts": `+facts+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK || bytes.Contains(b, []byte(`"error":"`)) {
		t.Fatalf("POST facts: %d %s", res.StatusCode, b)
	}
}

// copyDir copies the regular files of src into a new temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// pathVertices returns the entities on the best path of a relationship
// answer, endpoints included, parsed from its rendered hops.
func pathVertices(t *testing.T, p *nous.Pipeline, src, dst string) []string {
	t.Helper()
	a, err := p.Explain(src, dst, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Paths) == 0 {
		t.Fatalf("no path from %s to %s", src, dst)
	}
	hop := regexp.MustCompile(`^(.*) (?:-\[\w+\]->|<-\[\w+\]-) (.*)$`)
	verts := []string{src}
	for _, h := range a.Paths[0].Hops {
		m := hop.FindStringSubmatch(h)
		if m == nil {
			t.Fatalf("unparsable hop %q", h)
		}
		verts = append(verts, m[2])
	}
	return verts
}

// TestReplicaRelationshipMatchesLeader: relationship answers are a function
// of the fact log. A durable leader, a follower fed its stream over HTTP and
// the leader's data dir reopened from its snapshot and WAL tail answer the
// same "How is X related to Y?" questions byte-identically at equal epochs:
// at first, after extracted facts touching path vertices arrive, after an
// entity first appears after the first relationship read, and after a
// curated fact arrives. The reopened leader is opened afresh for every
// round. Each node calls BuildTopics when it starts, as a server once had to;
// the call does nothing now, and it goes when BuildTopics does.
func TestReplicaRelationshipMatchesLeader(t *testing.T) {
	cfg, w, arts := smallPersistConfig()
	dir := t.TempDir()
	leader, err := nous.OpenWithOptions(dir, w.Ontology, cfg, quickPersist())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if err := w.SeedKG(leader.KG()); err != nil {
		t.Fatal(err)
	}
	// Half the stream under the snapshot, a quarter in the WAL tail.
	leader.IngestAll(arts[:len(arts)/2])
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	leader.IngestAll(arts[len(arts)/2 : 3*len(arts)/4])
	leader.BuildTopics()
	src := leader.WALSource()
	src.Poll = 5 * time.Millisecond
	src.Heartbeat = 20 * time.Millisecond
	lts := httptest.NewServer(server.New(leader))
	defer lts.Close()

	follower, err := nous.Follow(context.Background(), lts.URL, w.Ontology, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	follower.BuildTopics()
	fts := httptest.NewServer(server.New(follower))
	defer fts.Close()

	pairs := [][2]string{
		{"3D Robotics", "Zephyrscan Aerial"},
		{"Aeronet Systems", "Zephyrair Dynamics"},
		{"Aerotech Ventures", "Windermere"},
		{"Ava Patel", "Aeroware Robotics"},
		{"Chen Moreno", "Amazon"},
		{"Amazon", "Vertex Labs"},
	}
	var questions []string
	for _, pr := range pairs {
		questions = append(questions, fmt.Sprintf("How is %s related to %s?", pr[0], pr[1]))
	}

	round := func(name string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for st := follower.Follower().Status(); !st.Connected || st.AppliedEpoch != leader.KG().Graph().Epoch(); st = follower.Follower().Status() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica never converged: %+v", name, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// The follower's tail synced the leader's WAL, so a copy of the
		// directory holds every write.
		reopened, err := nous.OpenWithOptions(copyDir(t, dir), w.Ontology, cfg, quickPersist())
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		reopened.BuildTopics()
		rts := httptest.NewServer(server.New(reopened))
		defer rts.Close()
		if e, r := leader.KG().Graph().Epoch(), reopened.KG().Graph().Epoch(); e != r {
			t.Fatalf("%s: reopened at epoch %d, leader at %d", name, r, e)
		}
		for _, q := range questions {
			lb := askRaw(t, lts.URL, q)
			if !bytes.Contains(lb, []byte("coherence=")) {
				t.Fatalf("%s: %s found no path: %s", name, q, lb)
			}
			if fb := askRaw(t, fts.URL, q); !bytes.Equal(lb, fb) {
				t.Errorf("%s: leader and follower disagree on %s\nleader:   %s\nfollower: %s", name, q, lb, fb)
			}
			if rb := askRaw(t, rts.URL, q); !bytes.Equal(lb, rb) {
				t.Errorf("%s: leader and reopened leader disagree on %s\nleader:   %s\nreopened: %s", name, q, lb, rb)
			}
		}
	}

	round("at start")

	// Extracted facts that touch the vertices of the answers' best paths.
	var facts []string
	for i, pr := range pairs[:3] {
		verts := pathVertices(t, leader, pr[0], pr[1])
		mid := verts[len(verts)/2]
		facts = append(facts, fmt.Sprintf(`{"subject": %q, "predicate": "relatedTo", "object": %q, "confidence": 0.9,
			"source": "newswire", "time": "2016-0%d-01", "sentence": "Investors funded the aerial survey venture."}`,
			mid, pairs[3+i][1], i+1))
	}
	postFacts(t, lts.URL, "["+strings.Join(facts, ",")+"]")
	round("after extracted facts on path vertices")

	// An entity first named after the first relationship read, joined to
	// two path vertices, asked about and passed through.
	verts := pathVertices(t, leader, pairs[0][0], pairs[0][1])
	postFacts(t, lts.URL, fmt.Sprintf(`[
		{"subject": "Novel Rotorworks", "predicate": "relatedTo", "object": %q, "confidence": 0.9,
			"source": "newswire", "time": "2016-05-01", "sentence": "Novel Rotorworks builds rotor drones for pilots."},
		{"subject": "Novel Rotorworks", "predicate": "relatedTo", "object": %q, "confidence": 0.9,
			"source": "newswire", "time": "2016-05-02", "sentence": "Novel Rotorworks signed a supply deal."}]`,
		verts[0], verts[len(verts)-1]))
	questions = append(questions, "How is Novel Rotorworks related to Amazon?")
	round("after a new entity")

	// A curated fact changes the fitted model itself.
	postFacts(t, lts.URL, fmt.Sprintf(`[{"subject": %q, "predicate": "relatedTo", "object": %q, "curated": true,
		"sentence": "Both firms trade on the stock exchange and pay dividends."}]`, verts[1], pairs[2][1]))
	round("after a curated fact")
}
