package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"nous/internal/ontology"
	"nous/internal/persist"
)

// randomTriples draws a batch of valid triples covering the fact schema's
// cases: curated and extracted, dated (with sub-second parts, which admission
// truncates) and undated, endpoint types left to the predicate signature,
// given as the signature or given as a subtype of it, with and without a
// sentence, source and document. The first triple is always an undated
// extracted fact. No triple is a self-loop, so FactsAbout lists each fact
// once.
func randomTriples(rng *rand.Rand, n int) []Triple {
	companies := []string{"Acme", "Globex", "Initech", "Umbrella", "Hooli"}
	cities := []string{"Shenzhen", "Paris", "Austin"}
	shapes := []struct {
		pred           string
		subj, obj      []string
		stypes, otypes []ontology.EntityType
	}{
		{"acquired", companies, companies,
			[]ontology.EntityType{"", ontology.TypeCompany}, []ontology.EntityType{"", ontology.TypeCompany}},
		{"headquarteredIn", companies, cities,
			[]ontology.EntityType{"", ontology.TypeOrganization, ontology.TypeCompany},
			[]ontology.EntityType{"", ontology.TypeLocation, ontology.TypeCity}},
		{"partnersWith", companies, companies,
			[]ontology.EntityType{"", ontology.TypeOrganization, ontology.TypeCompany},
			[]ontology.EntityType{"", ontology.TypeOrganization}},
		{"relatedTo", companies, cities,
			[]ontology.EntityType{"", ontology.TypeAny, ontology.TypeCompany},
			[]ontology.EntityType{"", ontology.TypeAny, ontology.TypeCity}},
	}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	ts := make([]Triple, n)
	for i := range ts {
		sh := shapes[rng.Intn(len(shapes))]
		t := Triple{
			Subject: pick(sh.subj), Predicate: sh.pred, Object: pick(sh.obj),
			SubjectType: sh.stypes[rng.Intn(len(sh.stypes))],
			ObjectType:  sh.otypes[rng.Intn(len(sh.otypes))],
			Confidence:  rng.Float64()*2 - 0.5, // admission clamps to [0,1]
			Curated:     rng.Intn(3) == 0,
			Provenance:  Provenance{Source: pick([]string{"", "wsj", "yago"})},
		}
		for t.Object == t.Subject {
			t.Object = pick(sh.obj)
		}
		if rng.Intn(2) == 0 {
			t.Provenance.DocID = fmt.Sprintf("d%d", i)
		}
		if rng.Intn(2) == 0 {
			t.Provenance.Sentence = fmt.Sprintf("sentence %d.", i)
		}
		if rng.Intn(3) != 0 {
			t.Provenance.Time = time.Unix(rng.Int63n(2e9), rng.Int63n(1e9))
		}
		ts[i] = t
	}
	ts[0].Curated, ts[0].Provenance.Time = false, time.Time{}
	return ts
}

// checkAccessors compares every fact read path of kg against want (ordered
// by ID), requiring deep equality — down to the zero provenance time reading
// back as time.Time{}.
func checkAccessors(kg *KG, want []Fact) error {
	if got := kg.AllFacts(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("AllFacts = %+v\nwant %+v", got, want)
	}
	if got := kg.NumFacts(); got != len(want) {
		return fmt.Errorf("NumFacts = %d, want %d", got, len(want))
	}
	about := map[string][]Fact{}
	byPred := map[string]int{}
	for _, f := range want {
		if got, ok := kg.Fact(f.ID); !ok || !reflect.DeepEqual(got, f) {
			return fmt.Errorf("Fact(%d) = %+v, %v\nwant %+v", f.ID, got, ok, f)
		}
		about[f.Subject] = append(about[f.Subject], f)
		about[f.Object] = append(about[f.Object], f)
		byPred[f.Predicate]++
	}
	for name, fs := range about {
		sort.SliceStable(fs, func(i, j int) bool { return fs[i].Confidence > fs[j].Confidence })
		if got := kg.FactsAbout(name); !reflect.DeepEqual(got, fs) {
			return fmt.Errorf("FactsAbout(%q) = %+v\nwant %+v", name, got, fs)
		}
	}
	if got := kg.Stats().PredicateCounts; !reflect.DeepEqual(got, byPred) {
		return fmt.Errorf("Stats().PredicateCounts = %v, want %v", got, byPred)
	}
	return nil
}

// addedFacts subscribes to kg and collects the payload of every FactAdded.
func addedFacts(kg *KG) *[]Fact {
	var added []Fact
	kg.Subscribe(func(ev Event) {
		if ev.Kind == FactAdded {
			added = append(added, ev.Fact)
		}
	})
	return &added
}

// TestOneDecoderProperty is the property the single fact store rests on: a
// fact read through any accessor, on the KG that admitted it, on a replica
// fed its mutation stream, or on a KG reopened from its snapshot and WAL, is
// deep-equal to what NormalizeTriple admitted.
func TestOneDecoderProperty(t *testing.T) {
	opt := persist.Options{DisableAutoCheckpoint: true, FlushInterval: time.Hour}
	property := func(seed int64) (ok bool) {
		fail := func(stage string, err error) bool {
			if err != nil {
				t.Errorf("seed %d, %s: %v", seed, stage, err)
			}
			return err != nil
		}
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		leader := NewKG(nil)
		st, err := persist.Open(dir, leader.Graph(), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		muts := captureMutations(leader)
		added := addedFacts(leader)

		// Half the batch lands under a snapshot, half in the WAL tail.
		ts := randomTriples(rng, 2+rng.Intn(30))
		var want []Fact
		for half, part := range [][]Triple{ts[:len(ts)/2], ts[len(ts)/2:]} {
			ids, errs := leader.AddFacts(part)
			for i, tr := range part {
				if errs[i] != nil {
					t.Fatalf("seed %d: generated triple rejected: %v", seed, errs[i])
				}
				norm, _ := leader.NormalizeTriple(tr)
				f := Fact{ID: ids[i], Triple: norm}
				f.Src, _ = leader.Entity(norm.Subject)
				f.Dst, _ = leader.Entity(norm.Object)
				want = append(want, f)
			}
			if half == 0 {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if fail("leader", checkAccessors(leader, want)) {
			return false
		}
		if !reflect.DeepEqual(*added, want) {
			return !fail("leader", fmt.Errorf("FactAdded payloads = %+v\nwant %+v", *added, want))
		}

		follower := NewKG(nil)
		followerAdded := addedFacts(follower)
		for _, m := range *muts {
			if err := follower.ApplyReplicated(m); err != nil {
				t.Fatalf("seed %d: ApplyReplicated(%v): %v", seed, m.Kind, err)
			}
		}
		if fail("follower", checkAccessors(follower, want)) {
			return false
		}
		if !reflect.DeepEqual(*followerAdded, want) {
			return !fail("follower", fmt.Errorf("FactAdded payloads = %+v\nwant %+v", *followerAdded, want))
		}

		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		reopened := NewKG(nil)
		st2, err := persist.Open(dir, reopened.Graph(), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		if err := reopened.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if fail("reopened", checkAccessors(reopened, want)) {
			return false
		}
		for name, kg := range map[string]*KG{"follower": follower, "reopened": reopened} {
			if !reflect.DeepEqual(kg.undated, leader.undated) {
				t.Errorf("seed %d: %s undated set = %v, leader's = %v", seed, name, kg.undated, leader.undated)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
