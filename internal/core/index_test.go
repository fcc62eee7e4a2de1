package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"nous/internal/graph"
	"nous/internal/ontology"
	"nous/internal/persist"
)

// refIndex is the entity index as the KG kept it before the graph filed
// entities itself: a canonical-name map, a reverse map and an alias map from
// lower-cased key to canonical names, filled by AddEntity alone. It is the
// reference the graph's index is held to.
type refIndex struct {
	byName  map[string]graph.VertexID
	byAlias map[string][]string
	names   map[graph.VertexID]string
	types   map[string]ontology.EntityType
	next    graph.VertexID
}

func newRefIndex() *refIndex {
	return &refIndex{
		byName:  map[string]graph.VertexID{},
		byAlias: map[string][]string{},
		names:   map[graph.VertexID]string{},
		types:   map[string]ontology.EntityType{},
	}
}

func (r *refIndex) addEntity(name string, typ ontology.EntityType, aliases ...string) {
	if typ == "" {
		typ = ontology.TypeAny
	}
	if _, ok := r.byName[name]; !ok {
		r.byName[name] = r.next
		r.names[r.next] = name
		r.types[name] = typ
		r.next++
		r.register(name, name)
	} else if typ != ontology.TypeAny && r.types[name] == ontology.TypeAny {
		r.types[name] = typ
	}
	for _, a := range aliases {
		r.register(a, name)
	}
}

func (r *refIndex) register(alias, canonical string) {
	key := strings.ToLower(strings.TrimSpace(alias))
	if key == "" {
		return
	}
	for _, n := range r.byAlias[key] {
		if n == canonical {
			return
		}
	}
	r.byAlias[key] = append(r.byAlias[key], canonical)
}

func (r *refIndex) candidates(surface string) []string {
	key := strings.ToLower(strings.TrimSpace(surface))
	seen := map[string]bool{}
	var out []string
	for _, n := range r.byAlias[key] {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	if len(out) == 0 && key != "" {
		for alias, names := range r.byAlias {
			if strings.HasPrefix(alias, key+" ") || strings.HasSuffix(alias, " "+key) {
				for _, n := range names {
					if !seen[n] {
						seen[n] = true
						out = append(out, n)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// binding is one ForEachAlias call.
type binding struct {
	alias, canonical string
	typ              ontology.EntityType
}

func (r *refIndex) bindings() []binding {
	var all []binding
	for alias, names := range r.byAlias {
		for _, n := range names {
			all = append(all, binding{alias, n, r.types[n]})
		}
	}
	return sortBindings(all)
}

// sortBindings orders bindings by (alias, canonical), so two lists compare
// as multisets: ForEachAlias promises no order.
func sortBindings(all []binding) []binding {
	sort.Slice(all, func(i, j int) bool {
		if all[i].alias != all[j].alias {
			return all[i].alias < all[j].alias
		}
		return all[i].canonical < all[j].canonical
	})
	return all
}

func (r *refIndex) entities() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// kgBindings lists kg's ForEachAlias calls, sorted.
func kgBindings(kg *KG) []binding {
	var all []binding
	kg.ForEachAlias(func(alias, canonical string, typ ontology.EntityType) {
		all = append(all, binding{alias, canonical, typ})
	})
	return sortBindings(all)
}

// Names and aliases the generated operations draw from: names that differ
// only in case or padding, two white-space names (whose key is empty),
// non-ASCII case pairs, aliases that collide with another entity's name key,
// padded and empty aliases, and multi-word aliases for the fallback match.
var (
	indexNames   = []string{"Apple", "APPLE", " Apple ", "apple", "  ", "\t", "DJI", "DJI Technology", "Édouard", "ÉDOUARD", "Parrot SA"}
	indexAliases = []string{"apple", "APPLE INC", "apple inc", " DJI Technology ", "dji", "", "  ", "Da-Jiang", "SZ DJI", "parrot", "Édouard Co", "x y"}
	indexTypes   = []ontology.EntityType{"", ontology.TypeAny, ontology.TypeCompany, ontology.TypePerson}
	// indexSurfaces adds to the names and aliases surfaces that only the
	// affix fallback matches, and ones that match nothing.
	indexSurfaces = []string{"inc", "INC", "jiang", "technology", "sa", "co", "y", "x", "édouard", "app", "dj", "nc", "nobody", ""}
)

// checkIndex compares every entity read of kg with the reference.
func checkIndex(kg *KG, ref *refIndex) error {
	for _, name := range append(append([]string{}, indexNames...), "", "nobody") {
		wantID, wantOK := ref.byName[name]
		if id, ok := kg.Entity(name); ok != wantOK || (ok && id != wantID) {
			return fmt.Errorf("Entity(%q) = %d, %v; want %d, %v", name, id, ok, wantID, wantOK)
		}
		wantType, wantOK := ref.types[name]
		if typ, ok := kg.EntityType(name); ok != wantOK || typ != wantType {
			return fmt.Errorf("EntityType(%q) = %q, %v; want %q, %v", name, typ, ok, wantType, wantOK)
		}
	}
	for id := graph.VertexID(-1); id <= ref.next; id++ {
		wantName, wantOK := ref.names[id]
		if name, ok := kg.EntityName(id); ok != wantOK || name != wantName {
			return fmt.Errorf("EntityName(%d) = %q, %v; want %q, %v", id, name, ok, wantName, wantOK)
		}
	}
	for _, s := range append(append(append([]string{}, indexNames...), indexAliases...), indexSurfaces...) {
		if got, want := kg.Candidates(s), ref.candidates(s); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Candidates(%q) = %q, want %q", s, got, want)
		}
	}
	if got, want := kgBindings(kg), ref.bindings(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("ForEachAlias = %q\nwant %q", got, want)
	}
	if got, want := kg.Entities(), ref.entities(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Entities = %q, want %q", got, want)
	}
	if got, want := kg.NumEntities(), len(ref.byName); got != want {
		return fmt.Errorf("NumEntities = %d, want %d", got, want)
	}
	return nil
}

// TestEntityIndexMatchesReference: after a random sequence of AddEntity
// calls, every entity read agrees with the reference on four KGs — the one
// that took the calls, one recovered by replaying its WAL alone, one
// reopened from a snapshot that covers every call, and a follower that
// bootstrapped from a snapshot taken midway and applied the rest of the
// mutation stream.
func TestEntityIndexMatchesReference(t *testing.T) {
	opt := persist.Options{DisableAutoCheckpoint: true, GroupCommitBytes: 1, FlushInterval: time.Hour}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
		walDir, snapDir := t.TempDir(), t.TempDir()
		live := NewKG(nil)
		walStore, err := persist.Open(walDir, live.Graph(), opt)
		if err != nil {
			t.Fatal(err)
		}
		snapStore, err := persist.Open(snapDir, live.Graph(), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer snapStore.Close()
		muts := captureMutations(live)

		ref := newRefIndex()
		ops := 1 + rng.Intn(40)
		mid := rng.Intn(ops)
		var boot *graph.GraphSnapshot
		for i := 0; i < ops; i++ {
			if i == mid {
				boot = live.Graph().Snapshot()
			}
			name, typ := pick(indexNames), indexTypes[rng.Intn(len(indexTypes))]
			aliases := make([]string, rng.Intn(3))
			for j := range aliases {
				aliases[j] = pick(indexAliases)
			}
			live.AddEntity(name, typ, aliases...)
			ref.addEntity(name, typ, aliases...)
		}
		bootMuts := 0
		for bootMuts < len(*muts) && (*muts)[bootMuts].Epoch <= boot.Epoch {
			bootMuts++
		}

		if err := walStore.Close(); err != nil {
			t.Fatal(err)
		}
		if err := snapStore.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		follower := NewKG(nil)
		follower.Graph().AdvanceIDs(boot.NextVertex, boot.NextEdge)
		if err := follower.Graph().RestoreVertices(boot.Vertices); err != nil {
			t.Fatal(err)
		}
		follower.Graph().SetEpoch(boot.Epoch)
		if err := follower.Rebuild(); err != nil {
			t.Fatal(err)
		}
		for _, m := range (*muts)[bootMuts:] {
			if err := follower.ApplyReplicated(m); err != nil {
				t.Fatalf("seed %d: ApplyReplicated: %v", seed, err)
			}
		}

		for _, path := range []struct {
			name string
			kg   *KG
		}{
			{"live", live},
			{"WAL replay", reopen(t, walDir, opt)},
			{"snapshot reopen", reopen(t, snapDir, opt)},
			{"follower", follower},
		} {
			if err := checkIndex(path.kg, ref); err != nil {
				t.Errorf("seed %d, %s: %v", seed, path.name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// reopen recovers a KG from a data directory.
func reopen(t *testing.T, dir string, opt persist.Options) *KG {
	t.Helper()
	kg := NewKG(nil)
	st, err := persist.Open(dir, kg.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := kg.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return kg
}

// TestWhiteSpaceNameIsAnEntity pins the rule for a name whose key is empty:
// it names an entity that Entity finds by its exact name, while no surface
// matches it and it binds no alias. The empty name itself names nothing.
func TestWhiteSpaceNameIsAnEntity(t *testing.T) {
	kg := NewKG(nil)
	id := kg.AddEntity("  ", ontology.TypeCompany, "spaces")
	if got, ok := kg.Entity("  "); !ok || got != id {
		t.Fatalf("Entity(two spaces) = %d, %v; want %d", got, ok, id)
	}
	for _, other := range []string{" ", "\t", ""} {
		if _, ok := kg.Entity(other); ok {
			t.Errorf("Entity(%q) found the entity named two spaces", other)
		}
	}
	if got := kg.Candidates("  "); got != nil {
		t.Errorf("Candidates(two spaces) = %q, want none", got)
	}
	if got := kg.Candidates("spaces"); !reflect.DeepEqual(got, []string{"  "}) {
		t.Errorf("Candidates(spaces) = %q, want the entity", got)
	}
	if got, want := kgBindings(kg), []binding{{"spaces", "  ", ontology.TypeCompany}}; !reflect.DeepEqual(got, want) {
		t.Errorf("ForEachAlias = %q, want %q", got, want)
	}

	epoch := kg.Graph().Epoch()
	if got := kg.AddEntity("", ontology.TypeCompany, "blank"); got != graph.NilVertex {
		t.Errorf("AddEntity(empty name) = %d, want NilVertex", got)
	}
	if kg.Graph().Epoch() != epoch || kg.NumEntities() != 1 {
		t.Errorf("AddEntity(empty name) wrote: epoch %d → %d, %d entities", epoch, kg.Graph().Epoch(), kg.NumEntities())
	}
}

// TestConcurrentEntityReadsBesideWriter runs Entity, Candidates and fact
// decoding beside a writer that adds entities, aliases and facts: the
// graph's index is written inside the same write lock as the rows, so a
// reader finds every entity the writer finished, under its alias too, and
// decodes every fact with both endpoint names.
func TestConcurrentEntityReadsBesideWriter(t *testing.T) {
	kg := NewKG(nil)
	const n = 300
	var done atomic.Int64 // entities 0..done-1 are complete
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("Firm %d", i)
			kg.AddEntity(name, ontology.TypeAny)
			kg.AddEntity(name, ontology.TypeCompany, fmt.Sprintf("F%d", i))
			if i > 0 {
				if _, err := kg.AddFact(curated(name, "acquired", fmt.Sprintf("Firm %d", i-1))); err != nil {
					t.Error(err)
					return
				}
			}
			done.Store(int64(i + 1))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for done.Load() < n {
				k := done.Load()
				if k == 0 {
					continue
				}
				i := rng.Int63n(k)
				name := fmt.Sprintf("Firm %d", i)
				if _, ok := kg.Entity(name); !ok {
					t.Errorf("Entity(%q) missing after its write", name)
					return
				}
				if got := kg.Candidates(fmt.Sprintf("f%d", i)); !reflect.DeepEqual(got, []string{name}) {
					t.Errorf("Candidates(f%d) = %q, want [%s]", i, got, name)
					return
				}
				for _, f := range kg.FactsAbout(name) {
					if f.Subject == "" || f.Object == "" {
						t.Errorf("fact %d decoded without a name: %+v", f.ID, f.Triple)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}
