package graph

import (
	"runtime"
	"sync"
)

// Pregel implements a bulk-synchronous-parallel vertex-program engine in the
// style of GraphX's Pregel operator. Vertices are hash-partitioned across
// worker goroutines; each superstep delivers the messages produced in the
// previous superstep, runs the vertex program on every active vertex, and
// halts when no messages remain or MaxSupersteps is reached.
//
// M is the message type; S is the per-vertex state type.
type Pregel[M, S any] struct {
	// Init returns the initial state of a vertex.
	Init func(v Vertex) S
	// Compute consumes the vertex's inbound messages and current state and
	// returns the new state. It runs once per active vertex per superstep
	// (every vertex in superstep 0, or every superstep when AllActive is
	// set). Messages for the next superstep are sent through ctx.
	Compute func(ctx *PregelContext[M], v Vertex, state S, msgs []M) S
	// Combine optionally merges two messages addressed to the same vertex
	// (GraphX's mergeMsg). May be nil, in which case messages accumulate.
	Combine func(a, b M) M
	// MaxSupersteps bounds execution; <=0 means 64.
	MaxSupersteps int
	// Workers is the number of partitions; <=0 means GOMAXPROCS.
	Workers int
	// AllActive runs Compute on every vertex each superstep, regardless of
	// whether it received messages.
	AllActive bool
}

// PregelContext lets a vertex program send messages and inspect the
// superstep index.
type PregelContext[M any] struct {
	Superstep int
	mu        *sync.Mutex
	outbox    map[VertexID][]M
	combine   func(a, b M) M
}

// Send delivers a message to dst at the next superstep.
func (c *PregelContext[M]) Send(dst VertexID, m M) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.combine != nil {
		if cur, ok := c.outbox[dst]; ok && len(cur) == 1 {
			cur[0] = c.combine(cur[0], m)
			return
		}
	}
	c.outbox[dst] = append(c.outbox[dst], m)
}

// Run executes the vertex program over g and returns the final state of
// every vertex.
func (p *Pregel[M, S]) Run(g *Graph) map[VertexID]S {
	maxSteps := p.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 64
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ids := g.VertexIDs()
	states := make(map[VertexID]S, len(ids))
	for _, id := range ids {
		v, _ := g.Vertex(id)
		states[id] = p.Init(v)
	}

	// Hash-partition vertices across workers, mirroring GraphX's
	// partition-parallel execution.
	parts := make([][]VertexID, workers)
	for _, id := range ids {
		w := int(uint64(id) % uint64(workers))
		parts[w] = append(parts[w], id)
	}

	var stateMu sync.Mutex
	inbox := make(map[VertexID][]M)
	for step := 0; step < maxSteps; step++ {
		outMu := &sync.Mutex{}
		outbox := make(map[VertexID][]M)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			part := parts[w]
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := &PregelContext[M]{Superstep: step, mu: outMu, outbox: outbox, combine: p.Combine}
				for _, id := range part {
					msgs := inbox[id]
					if step > 0 && len(msgs) == 0 && !p.AllActive {
						continue // vertex halted
					}
					v, ok := g.Vertex(id)
					if !ok {
						continue
					}
					stateMu.Lock()
					cur := states[id]
					stateMu.Unlock()
					next := p.Compute(ctx, v, cur, msgs)
					stateMu.Lock()
					states[id] = next
					stateMu.Unlock()
				}
			}()
		}
		wg.Wait()
		if len(outbox) == 0 && !p.AllActive {
			break
		}
		inbox = outbox
	}
	return states
}

// ConnectedComponents labels every vertex with the smallest vertex ID
// reachable from it treating edges as undirected, via Pregel label
// propagation.
func ConnectedComponents(g *Graph) map[VertexID]VertexID {
	p := &Pregel[VertexID, VertexID]{
		MaxSupersteps: 1 + g.NumVertices(),
		Init:          func(v Vertex) VertexID { return v.ID },
		Combine: func(a, b VertexID) VertexID {
			if a < b {
				return a
			}
			return b
		},
		Compute: func(ctx *PregelContext[VertexID], v Vertex, label VertexID, msgs []VertexID) VertexID {
			best := label
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			if ctx.Superstep == 0 || best < label {
				for _, nb := range g.Neighbors(v.ID) {
					ctx.Send(nb, best)
				}
			}
			return best
		},
	}
	return p.Run(g)
}

// SSSP computes single-source shortest hop counts from src treating edges as
// undirected (BFS). Unreachable vertices are absent from the result.
func SSSP(g *Graph, src VertexID) map[VertexID]int {
	if !g.HasVertex(src) {
		return map[VertexID]int{}
	}
	dist := map[VertexID]int{src: 0}
	frontier := []VertexID{src}
	for len(frontier) > 0 {
		var next []VertexID
		for _, u := range frontier {
			for _, nb := range g.Neighbors(u) {
				if _, seen := dist[nb]; !seen {
					dist[nb] = dist[u] + 1
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return dist
}
