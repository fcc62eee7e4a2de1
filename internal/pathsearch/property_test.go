package pathsearch

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nous/internal/graph"
	"nous/internal/temporal"
)

// diffCase is one random differential case for the beam: a multigraph with
// 8-dimensional topics, a query, and the same multigraph rebuilt with only
// the edges the query's window shows. refTopK/refBFS ignore windows, so the
// windowed search on the full graph is compared with the reference on the
// visible graph, whose edge IDs visFull maps back to the full graph's.
type diffCase struct {
	full, vis *Searcher
	visFull   map[graph.EdgeID]graph.EdgeID
	src, dst  graph.VertexID
	opt       Options
}

// neverInterned is a predicate no fixture edge carries.
const neverInterned = "pathsearch-test-predicate-no-edge-has"

func newDiffCase(seed int64) diffCase {
	r := rand.New(rand.NewSource(seed))
	const dim = 8
	nVerts := 2 + r.Intn(24)

	// A small palette of topic vectors, so many vertices share one exactly
	// (equal lookaheads) or up to a few ulps (divergences that round to
	// zero or slightly below).
	palette := make([][]float64, 2+r.Intn(4))
	for i := range palette {
		v := make([]float64, dim)
		sum := 0.0
		for k := range v {
			if r.Intn(3) > 0 {
				v[k] = r.Float64()
				sum += v[k]
			}
		}
		if sum == 0 {
			v[0], sum = 1, 1
		}
		for k := range v {
			v[k] /= sum
		}
		palette[i] = v
	}
	topicOf := map[graph.VertexID][]float64{}
	full, vis := graph.New(), graph.New()
	for i := 0; i < nVerts; i++ {
		id := full.AddVertex("Company")
		if vis.AddVertex("Company") != id {
			panic("vertex IDs diverge between the two builds")
		}
		if r.Intn(10) == 0 {
			continue // no topic vector: divergence 0 to everything
		}
		v := append([]float64(nil), palette[r.Intn(len(palette))]...)
		if r.Intn(3) == 0 {
			for k := range v {
				for n := r.Intn(3); n > 0; n-- {
					v[k] = math.Nextafter(v[k], float64(r.Intn(2)))
				}
			}
		}
		topicOf[id] = v
	}

	win := temporal.All()
	if r.Intn(3) > 0 {
		win = temporal.Window{Since: 90 + int64(r.Intn(60)), Until: 90 + int64(r.Intn(70))}
	}
	labels := []string{"acquired", "invests", "suppliesTo", "partnersWith"}
	visFull := map[graph.EdgeID]graph.EdgeID{}
	type ends struct{ a, b graph.VertexID }
	var prior []ends
	for n := r.Intn(4 * nVerts); n > 0; n-- {
		var a, b graph.VertexID
		if len(prior) > 0 && r.Intn(4) == 0 {
			e := prior[r.Intn(len(prior))] // a parallel edge, either way round
			a, b = e.a, e.b
			if r.Intn(2) == 0 {
				a, b = b, a
			}
		} else {
			a, b = graph.VertexID(r.Intn(nVerts)), graph.VertexID(r.Intn(nVerts))
			if a == b {
				continue
			}
		}
		prior = append(prior, ends{a, b})
		label := labels[r.Intn(len(labels))]
		weight := float64(1 + r.Intn(3))
		ts := 100 + int64(r.Intn(5))*10
		spec := []graph.EdgeSpec{{Src: a, Dst: b, Label: label, Weight: weight, Timestamp: ts,
			Row: graph.FactRow{Curated: r.Intn(4) == 0}}}
		ids, err := full.AddEdges(spec)
		if err != nil {
			panic(err)
		}
		if win.Contains(ts) || spec[0].Row.Curated {
			vids, err := vis.AddEdges(spec)
			if err != nil {
				panic(err)
			}
			visFull[vids[0]] = ids[0]
		}
	}

	opt := Options{K: 1 + r.Intn(6), MaxDepth: 1 + r.Intn(6), Beam: 1 + r.Intn(8), Window: win}
	switch r.Intn(10) {
	case 0:
		opt.Predicate = neverInterned
	case 1, 2, 3, 4:
		opt.Predicate = labels[r.Intn(len(labels))]
	}
	return diffCase{
		full:    New(full, mapTopics(topicOf)),
		vis:     New(vis, mapTopics(topicOf)),
		visFull: visFull,
		src:     graph.VertexID(r.Intn(nVerts)),
		dst:     graph.VertexID(r.Intn(nVerts)),
		opt:     opt,
	}
}

// toFull rewrites reference paths found on the visible graph into the full
// graph's edge IDs.
func (c diffCase) toFull(paths []Path) []Path {
	for _, p := range paths {
		for i := range p.Edges {
			p.Edges[i].ID = c.visFull[p.Edges[i].ID]
		}
	}
	return paths
}

// checkBeamMatchesReference demands TopK and BFSPaths equal refTopK and
// refBFS on one random case.
func checkBeamMatchesReference(t *testing.T, seed int64) {
	t.Helper()
	c := newDiffCase(seed)
	if got, want := c.full.TopK(c.src, c.dst, c.opt), c.toFull(c.vis.refTopK(c.src, c.dst, c.opt)); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d TopK %d->%d %+v:\n got %v\nwant %v", seed, c.src, c.dst, c.opt, got, want)
	}
	if got, want := c.full.BFSPaths(c.src, c.dst, c.opt), c.toFull(c.vis.refBFS(c.src, c.dst, c.opt)); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d BFSPaths %d->%d %+v:\n got %v\nwant %v", seed, c.src, c.dst, c.opt, got, want)
	}
}

// TestBeamMatchesReferenceProperty runs the differential check over 600
// seeded multigraphs: parallel edges, duplicate and near-identical
// 8-dimensional topics, Beam 1–8, MaxDepth 1–6, random time windows and
// predicate constraints.
func TestBeamMatchesReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 600; seed++ {
		checkBeamMatchesReference(t, seed)
	}
}

func FuzzTopKMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkBeamMatchesReference)
}
