package fgm

import "sync"

// feedCap bounds the feed: the mutations posted but not yet counted. A
// poster that finds it full waits for the drain, which is what a poster
// that counted on its own goroutine would pay. On the benchmark's
// ingest_stream workload (10 s, two cores, seeds 1 and 7919) the deepest
// feed held 91–100 mutations in the timed phase and 1,198–1,213 at setup,
// when the curated KB lands as one AddFacts batch; the bound holds that
// batch too.
const feedCap = 4096

// feedOp is one posted mutation: the arrival of e, or with remove set the
// removal of seq e.ID.
type feedOp struct {
	e      Edge
	remove bool
}

// feed is the miner's FIFO of posted mutations. One goroutine drains it in
// post order while it holds anything and exits once it is empty, so an idle
// miner holds no goroutine and needs no Close. Each post takes a ticket;
// counted is how many tickets the drain has counted.
type feed struct {
	mu      sync.Mutex
	cond    sync.Cond // signalled when counted moves
	ops     []feedOp  // posted, not yet taken by the drain
	posted  int64
	counted int64
	running bool // a drain goroutine is live
}

// Post queues the arrival of e, to be counted as Add would count it, and
// returns without counting it. Every read and every synchronous mutation
// waits until the posts that came before it are counted, so the miner's
// answers are those of a miner that had counted each post as it was made.
// Post waits while the feed is full. The drain takes no lock but the
// miner's own, so Post may wait under a lock that the miner's readers also
// take, as the pipeline posts under the KG's write lock.
func (m *Miner) Post(e Edge) { m.post(feedOp{e: e}) }

// PostRemove queues Remove(id) as Post queues Add.
func (m *Miner) PostRemove(id int64) { m.post(feedOp{e: Edge{ID: id}, remove: true}) }

func (m *Miner) post(op feedOp) {
	f := &m.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.posted-f.counted >= feedCap {
		f.cond.Wait()
	}
	f.ops = append(f.ops, op)
	f.posted++
	if !f.running {
		f.running = true
		go m.drain()
	}
}

// drain counts the feed in post order until it is empty. It takes the whole
// feed at a time and counts it under m.mu, swapping the two op buffers so a
// steady stream of posts allocates nothing.
func (m *Miner) drain() {
	f := &m.feed
	var batch []feedOp
	for {
		f.mu.Lock()
		if len(batch) > 0 {
			f.counted += int64(len(batch))
			f.cond.Broadcast()
		}
		if len(f.ops) == 0 {
			f.running = false
			f.mu.Unlock()
			return
		}
		batch, f.ops = f.ops, batch[:0]
		f.mu.Unlock()

		m.mu.Lock()
		for _, op := range batch {
			if op.remove {
				m.removeLocked(op.e.ID)
			} else {
				m.addLocked(op.e)
			}
		}
		m.mu.Unlock()
	}
}

// Wait returns once every mutation posted before the call is counted. It
// waits for its own ticket, not for an empty feed, so posts that go on
// beside it cannot hold it back.
func (m *Miner) Wait() {
	f := &m.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	for ticket := f.posted; f.counted < ticket; {
		f.cond.Wait()
	}
}

// Backlog reports how many posted mutations are not yet counted: zero once
// a Wait with no poster beside it has returned.
func (m *Miner) Backlog() int {
	f := &m.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(f.posted - f.counted)
}
