package pll

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// ErrNotDynamic is returned by ConcurrentOracle.InsertEdge when the
// wrapped oracle is a frozen/static variant.
var ErrNotDynamic = errors.New("pll: oracle is not a dynamic index")

// ConcurrentOracle makes any Oracle safe for concurrent use and
// atomically replaceable, which is what a long-lived query server
// needs:
//
//   - Static variants (*Index, *DirectedIndex, *WeightedIndex and
//     frozen dynamic snapshots) are immutable, so reads go straight
//     through a single atomic pointer load — no lock, no contention,
//     same per-query cost as calling the index directly.
//   - A wrapped *DynamicIndex additionally gets an RWMutex: Distance
//     and friends take the read lock, InsertEdge takes the write lock,
//     so online updates interleave safely with queries.
//   - Swap installs a different oracle (e.g. a freshly loaded index
//     file) in one atomic store. In-flight operations finish against
//     the oracle they started on; new operations see the replacement.
//     Nothing blocks, no request is dropped.
//
// A ConcurrentOracle itself implements Oracle, so servers and tools
// can program against it unchanged.
type ConcurrentOracle struct {
	state atomic.Pointer[concurrentState]
	gen   atomic.Uint64
}

// concurrentState pairs an oracle with the lock discipline it needs.
// The two travel together through the atomic pointer so a swap can
// never mix one oracle with another's mutex.
type concurrentState struct {
	oracle Oracle
	mu     *sync.RWMutex // nil for immutable (static) oracles
}

func newConcurrentState(o Oracle) *concurrentState {
	st := &concurrentState{oracle: o}
	if _, dynamic := o.(*DynamicIndex); dynamic {
		st.mu = &sync.RWMutex{}
	}
	return st
}

// NewConcurrentOracle wraps o for concurrent querying, updating and
// hot-swapping.
func NewConcurrentOracle(o Oracle) *ConcurrentOracle {
	c := &ConcurrentOracle{}
	c.state.Store(newConcurrentState(o))
	return c
}

// read loads the current state and takes its read lock when it has one
// (a dynamic oracle). The caller releases it with a deferred done.
func (c *ConcurrentOracle) read() *concurrentState {
	st := c.state.Load()
	if st.mu != nil {
		st.mu.RLock()
	}
	return st
}

// done releases the read lock read took, if any.
func (st *concurrentState) done() {
	if st.mu != nil {
		st.mu.RUnlock()
	}
}

// View runs f against a consistent snapshot of the current oracle,
// holding the read lock (when the oracle is dynamic) for the whole
// call. Use it when several calls must observe the same index — e.g.
// validating vertex IDs and then querying, or answering a batch — so a
// concurrent Swap cannot change the oracle mid-sequence. f must not
// retain the oracle after returning and must not call InsertEdge or
// Swap (the former would deadlock on the write lock).
func (c *ConcurrentOracle) View(f func(o Oracle) error) error {
	st := c.read()
	defer st.done()
	return f(st.oracle)
}

// Distance returns the exact s-t distance, or Unreachable.
func (c *ConcurrentOracle) Distance(s, t int32) int64 {
	st := c.read()
	defer st.done()
	return st.oracle.Distance(s, t)
}

// Path returns one exact shortest path, or nil for disconnected pairs.
func (c *ConcurrentOracle) Path(s, t int32) ([]int32, error) {
	st := c.read()
	defer st.done()
	return st.oracle.Path(s, t)
}

// DistanceFrom answers a single-source batch against one consistent
// snapshot of the current oracle (see Batcher), forwarding to the
// snapshot's own Batcher implementation when it has one and falling
// back to per-target Distance calls otherwise. For a wrapped
// *DynamicIndex the read lock covers the whole batch, so a concurrent
// InsertEdge can never split it.
func (c *ConcurrentOracle) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	st := c.read()
	defer st.done()
	if b, ok := st.oracle.(Batcher); ok {
		return b.DistanceFrom(s, targets, dst)
	}
	if cap(dst) < len(targets) {
		dst = make([]int64, len(targets))
	}
	dst = dst[:len(targets)]
	for i, t := range targets {
		dst[i] = st.oracle.Distance(s, t)
	}
	return dst
}

// NumVertices returns the number of vertices the current oracle covers.
func (c *ConcurrentOracle) NumVertices() int {
	st := c.read()
	defer st.done()
	return st.oracle.NumVertices()
}

// Stats summarizes the current oracle.
func (c *ConcurrentOracle) Stats() Stats {
	st := c.read()
	defer st.done()
	return st.oracle.Stats()
}

// WriteTo serializes the current oracle, excluding concurrent updates
// for the duration of the write.
func (c *ConcurrentOracle) WriteTo(w io.Writer) (int64, error) {
	st := c.read()
	defer st.done()
	return st.oracle.WriteTo(w)
}

// Update runs f against the wrapped *DynamicIndex under the write
// lock, so a multi-step mutation (validate, then insert several edges)
// is atomic with respect to queries and other updates, and observes
// one oracle even if Swap runs concurrently. Wrapping any other
// variant yields ErrNotDynamic without calling f. An update that races
// with Swap applies to whichever oracle it loaded first and may
// therefore land on the retired index; callers that swap and update
// from the same goroutine never observe this.
func (c *ConcurrentOracle) Update(f func(di *DynamicIndex) error) error {
	st := c.state.Load()
	di, ok := st.oracle.(*DynamicIndex)
	if !ok {
		return ErrNotDynamic
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return f(di)
}

// InsertEdge adds the undirected edge {a,b} to a wrapped *DynamicIndex
// under the write lock and returns the number of label entries
// repaired. See Update for the interaction with Swap.
func (c *ConcurrentOracle) InsertEdge(a, b int32) (int, error) {
	var delta int
	err := c.Update(func(di *DynamicIndex) error {
		var err error
		delta, err = di.InsertEdge(a, b)
		return err
	})
	return delta, err
}

// Snapshot returns the current oracle. The result is stable — a later
// Swap does not mutate it — and safe to query directly when it is a
// static variant. A *DynamicIndex snapshot must not be queried or
// updated directly while others may be writing; go through the
// ConcurrentOracle (or View) instead.
func (c *ConcurrentOracle) Snapshot() Oracle { return c.state.Load().oracle }

// Swap atomically installs o as the serving oracle and returns the
// previous one. Operations already running complete against the old
// oracle; every operation starting after Swap returns sees o. The
// swap itself never blocks on readers.
func (c *ConcurrentOracle) Swap(o Oracle) Oracle {
	old := c.state.Swap(newConcurrentState(o))
	c.gen.Add(1)
	return old.oracle
}

// Generation counts completed Swaps, starting at 0. Servers use it to
// tag cached results and report reloads.
func (c *ConcurrentOracle) Generation() uint64 { return c.gen.Load() }
