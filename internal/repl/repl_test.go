package repl

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"nous/internal/core"
	"nous/internal/graph"
	"nous/internal/ontology"
	"nous/internal/persist"
)

// newLeaderServer stands up a durable KG plus a minimal HTTP front for the
// two replication endpoints, without depending on the full server package.
func newLeaderServer(t *testing.T) (*core.KG, *Leader, *httptest.Server) {
	t.Helper()
	kg := core.NewKG(nil)
	st, err := persist.Open(t.TempDir(), kg.Graph(), persist.Options{
		DisableAutoCheckpoint: true, FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	l, srv := serveLeader(t, kg, st)
	return kg, l, srv
}

// serveLeader puts the two replication endpoints in front of a durable KG.
func serveLeader(t *testing.T, kg *core.KG, st *persist.Store) (*Leader, *httptest.Server) {
	t.Helper()
	l := NewLeader(kg.Graph(), st)
	l.Poll = 5 * time.Millisecond
	l.Heartbeat = 20 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		path, _, err := l.SnapshotPath()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		http.ServeFile(w, r, path)
	})
	mux.HandleFunc("GET /api/v1/wal", func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err := l.StreamWAL(r.Context(), from, w); err == ErrBelowFloor {
			http.Error(w, err.Error(), http.StatusGone)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return l, srv
}

func addFact(t *testing.T, kg *core.KG, subj, obj string, ts int64) {
	t.Helper()
	if _, err := kg.AddFact(core.Triple{
		Subject: subj, Predicate: "partnersWith", Object: obj,
		Confidence: 0.8,
		Provenance: core.Provenance{Source: "t", Time: time.Unix(ts, 0)},
	}); err != nil {
		t.Fatal(err)
	}
}

func waitConverged(t *testing.T, f *Follower, leader *core.KG) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.Status().AppliedEpoch == leader.Graph().Epoch() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never converged: applied=%d leader=%d",
		f.Status().AppliedEpoch, leader.Graph().Epoch())
}

// TestFollowerBootstrapAndTail: a follower starting from nothing catches up
// to a leader's pre-existing state, then tracks live writes.
func TestFollowerBootstrapAndTail(t *testing.T) {
	leaderKG, _, srv := newLeaderServer(t)
	addFact(t, leaderKG, "acme corp", "globex", 100)
	addFact(t, leaderKG, "globex", "initech", 200)

	fkg := core.NewKG(nil)
	f := NewFollower(srv.URL, fkg)
	f.MinBackoff = 5 * time.Millisecond
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()
	waitConverged(t, f, leaderKG)

	// Live writes after the stream is up.
	addFact(t, leaderKG, "initech", "acme corp", 300)
	waitConverged(t, f, leaderKG)

	if got, want := fkg.NumFacts(), leaderKG.NumFacts(); got != want {
		t.Fatalf("follower facts = %d, want %d", got, want)
	}
	if got, want := fkg.Entities(), leaderKG.Entities(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entities = %v, want %v", got, want)
	}
	st := f.Status()
	if !st.Connected || st.Lag != 0 || st.LastError != "" {
		t.Fatalf("status = %+v, want connected, lag 0, no error", st)
	}
}

// TestEntityRowsAgreeAcrossPaths: an entity's vertex row — label, name and
// aliases in insertion order — and the alias index derived from it read the
// same on four KGs: the one built live, one recovered by replaying its WAL
// alone, one reopened from a snapshot that covers every write, and a
// follower that bootstrapped from a snapshot taken midway and applied the
// rest from the stream. The writes after the follower's bootstrap include
// an alias bound to an existing entity and a generic entity's relabel, so
// both reach the follower as records of their own.
func TestEntityRowsAgreeAcrossPaths(t *testing.T) {
	opts := persist.Options{DisableAutoCheckpoint: true, GroupCommitBytes: 1, FlushInterval: time.Hour}
	dir, walDir := t.TempDir(), t.TempDir()
	live := core.NewKG(nil)
	st, err := persist.Open(dir, live.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// A second store on the same graph logs every write and never
	// checkpoints, so its directory recovers by WAL replay alone.
	walStore, err := persist.Open(walDir, live.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}

	live.AddEntity("DJI", ontology.TypeCompany, "DJI Technology", "Da-Jiang")
	live.AddEntity("Windermere", ontology.TypeAny)
	live.AddEntity("Parrot", ontology.TypeCompany)
	addFact(t, live, "DJI", "Parrot", 100)

	_, srv := serveLeader(t, live, st)
	fkg := core.NewKG(nil)
	f := NewFollower(srv.URL, fkg)
	f.MinBackoff = 5 * time.Millisecond
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()

	live.AddEntity("Parrot", ontology.TypeCompany, "Parrot SA")
	live.AddEntity("Windermere", ontology.TypeCompany)
	live.AddEntity("Windermere", ontology.TypePerson) // upgraded already: no write
	live.AddEntity("DJI", ontology.TypeCompany, "dji technology", "SZ DJI")
	addFact(t, live, "Windermere", "DJI", 200)
	waitConverged(t, f, live)

	if err := walStore.Close(); err != nil {
		t.Fatal(err)
	}
	walKG := reopenKG(t, walDir, opts)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapKG := reopenKG(t, dir, opts)

	for name, want := range map[string]graph.Vertex{
		"DJI":        {Label: "Company", Name: "DJI", Aliases: []string{"dji technology", "da-jiang", "sz dji"}},
		"Windermere": {Label: "Company", Name: "Windermere"},
		"Parrot":     {Label: "Company", Name: "Parrot", Aliases: []string{"parrot sa"}},
	} {
		id, _ := live.Entity(name)
		want.ID = id
		if got, _ := live.Graph().Vertex(id); !reflect.DeepEqual(got, want) {
			t.Errorf("live %s = %+v, want %+v", name, got, want)
		}
	}
	for path, kg := range map[string]*core.KG{"WAL replay": walKG, "snapshot reopen": snapKG, "follower": fkg} {
		if got, want := kg.Graph().Epoch(), live.Graph().Epoch(); got != want {
			t.Errorf("%s: epoch %d, want %d", path, got, want)
		}
		if got, want := kg.Entities(), live.Entities(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: entities %v, want %v", path, got, want)
		}
		for _, name := range live.Entities() {
			id, _ := live.Entity(name)
			want, _ := live.Graph().Vertex(id)
			if got, _ := kg.Graph().Vertex(id); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: vertex %s = %+v, want %+v", path, name, got, want)
			}
			lt, _ := live.EntityType(name)
			if typ, _ := kg.EntityType(name); typ != lt {
				t.Errorf("%s: type of %s = %s, want %s", path, name, typ, lt)
			}
			for _, alias := range append([]string{name}, want.Aliases...) {
				if got, want := kg.Candidates(alias), live.Candidates(alias); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Candidates(%q) = %v, want %v", path, alias, got, want)
				}
			}
		}
	}
}

// reopenKG recovers a KG from a data directory the way a restart does: the
// store restores the graph, Rebuild derives the KG's indexes over it.
func reopenKG(t *testing.T, dir string, opts persist.Options) *core.KG {
	t.Helper()
	kg := core.NewKG(nil)
	st, err := persist.Open(dir, kg.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := kg.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return kg
}

// TestFollowerReconnects: killing the stream mid-flight makes the follower
// resume from its applied epoch and converge.
func TestFollowerReconnects(t *testing.T) {
	leaderKG, _, srv := newLeaderServer(t)
	addFact(t, leaderKG, "acme corp", "globex", 100)

	fkg := core.NewKG(nil)
	f := NewFollower(srv.URL, fkg)
	f.MinBackoff = 5 * time.Millisecond
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()
	waitConverged(t, f, leaderKG)

	// Drop every open connection; the server keeps listening.
	srv.CloseClientConnections()
	addFact(t, leaderKG, "globex", "initech", 200)
	waitConverged(t, f, leaderKG)
	if got, want := fkg.NumFacts(), leaderKG.NumFacts(); got != want {
		t.Fatalf("facts after reconnect = %d, want %d", got, want)
	}
}

// TestFollowerSnapshotRollWhileTailing: checkpoints (and the pruning they
// trigger) on the leader must not disturb a connected follower.
func TestFollowerSnapshotRollWhileTailing(t *testing.T) {
	leaderKG, l, srv := newLeaderServer(t)
	addFact(t, leaderKG, "acme corp", "globex", 100)

	fkg := core.NewKG(nil)
	f := NewFollower(srv.URL, fkg)
	f.MinBackoff = 5 * time.Millisecond
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()
	waitConverged(t, f, leaderKG)

	for i := 0; i < 4; i++ {
		addFact(t, leaderKG, "globex", "initech", int64(200+i))
		if err := l.st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, f, leaderKG)
	}
	if got, want := fkg.NumFacts(), leaderKG.NumFacts(); got != want {
		t.Fatalf("facts across snapshot rolls = %d, want %d", got, want)
	}
}

// TestStreamResumeSkipsApplied: a resumed stream must not redeliver records
// at or below the follower's applied epoch.
func TestStreamResumeSkipsApplied(t *testing.T) {
	leaderKG, _, srv := newLeaderServer(t)
	addFact(t, leaderKG, "acme corp", "globex", 100)

	fkg := core.NewKG(nil)
	f := NewFollower(srv.URL, fkg)
	f.MinBackoff = time.Millisecond
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.Start()
	waitConverged(t, f, leaderKG)
	f.Close()
	resumeEpoch := f.Status().AppliedEpoch

	// Reconnect from the applied epoch: records at or below it are filtered
	// server-side, so only genuinely new epochs arrive.
	var applied []uint64
	f.OnApply = func(m graph.Mutation) { applied = append(applied, m.Epoch) }
	f.Start()
	addFact(t, leaderKG, "globex", "initech", 200)
	waitConverged(t, f, leaderKG)
	f.Close() // stop the stream goroutine before reading its output
	for _, e := range applied {
		if e <= resumeEpoch {
			t.Fatalf("record with epoch %d redelivered at or below resume epoch %d", e, resumeEpoch)
		}
	}
	if len(applied) == 0 {
		t.Fatal("no new records applied after resume")
	}
}
