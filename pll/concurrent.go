package pll

import (
	"errors"
	"io"
	"sync/atomic"
)

// ErrNotDynamic is returned by ConcurrentOracle.InsertEdge when the
// wrapped oracle is a frozen/static variant.
var ErrNotDynamic = errors.New("pll: oracle is not a dynamic index")

// ConcurrentOracle makes any Oracle atomically replaceable, which is
// what a long-lived query server needs:
//
//   - Every read goes through a single atomic pointer load: no lock, no
//     contention, the same per-query cost as calling the index directly.
//     The static variants (*Index, *DirectedIndex, *WeightedIndex and
//     frozen dynamic snapshots) are immutable. A *DynamicIndex is safe
//     for concurrent use on its own: each read sees one published
//     version of its labels, and each InsertEdge or InsertEdges call
//     publishes whole, so reads never wait for an insert.
//   - Swap installs a different oracle (e.g. a freshly loaded index
//     file) in one atomic store. In-flight operations finish against
//     the oracle they started on; new operations see the replacement.
//     Nothing blocks, no request is dropped.
//
// A ConcurrentOracle itself implements Oracle, so servers and tools
// can program against it unchanged.
type ConcurrentOracle struct {
	state atomic.Pointer[Oracle]
	gen   atomic.Uint64
}

// NewConcurrentOracle wraps o for concurrent querying, updating and
// hot-swapping.
func NewConcurrentOracle(o Oracle) *ConcurrentOracle {
	c := &ConcurrentOracle{}
	c.state.Store(&o)
	return c
}

// load returns the current oracle.
func (c *ConcurrentOracle) load() Oracle { return *c.state.Load() }

// View runs f against the current oracle, which a concurrent Swap
// cannot change for the rest of the call. Use it when several calls
// must observe the same index — e.g. validating vertex IDs and then
// querying, or answering a batch. On a *DynamicIndex each read call
// inside f (a Distance, a whole DistanceFrom batch, a Stats, a WriteTo)
// sees one published version; a later call may see a later one, never
// an earlier one. f must not retain the oracle after returning.
func (c *ConcurrentOracle) View(f func(o Oracle) error) error {
	return f(c.load())
}

// Distance returns the exact s-t distance, or Unreachable.
func (c *ConcurrentOracle) Distance(s, t int32) int64 { return c.load().Distance(s, t) }

// Path returns one exact shortest path, or nil for disconnected pairs.
func (c *ConcurrentOracle) Path(s, t int32) ([]int32, error) { return c.load().Path(s, t) }

// DistanceFrom answers a single-source batch against the current oracle
// (see Batcher), forwarding to its own Batcher implementation when it
// has one and falling back to per-target Distance calls otherwise. A
// *DynamicIndex answers the whole batch from one published version, so
// a concurrent InsertEdge can never split it.
func (c *ConcurrentOracle) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	o := c.load()
	if b, ok := o.(Batcher); ok {
		return b.DistanceFrom(s, targets, dst)
	}
	if cap(dst) < len(targets) {
		dst = make([]int64, len(targets))
	}
	dst = dst[:len(targets)]
	for i, t := range targets {
		dst[i] = o.Distance(s, t)
	}
	return dst
}

// NumVertices returns the number of vertices the current oracle covers.
func (c *ConcurrentOracle) NumVertices() int { return c.load().NumVertices() }

// Stats summarizes the current oracle.
func (c *ConcurrentOracle) Stats() Stats { return c.load().Stats() }

// WriteTo serializes the current oracle; a *DynamicIndex writes one
// published version whole, while concurrent inserts go on.
func (c *ConcurrentOracle) WriteTo(w io.Writer) (int64, error) { return c.load().WriteTo(w) }

// Update runs f against the wrapped *DynamicIndex, so a multi-step
// mutation (validate, then insert) observes one oracle even if Swap runs
// concurrently. Wrapping any other variant yields ErrNotDynamic without
// calling f. Each InsertEdge or InsertEdges call inside f publishes
// whole and runs alone among the index's writers; readers never wait
// for it. Pass a batch that must appear at once to one InsertEdges
// call. An update that races with Swap applies to whichever oracle it
// loaded first and may therefore land on the retired index; callers
// that swap and update from the same goroutine never observe this.
func (c *ConcurrentOracle) Update(f func(di *DynamicIndex) error) error {
	di, ok := c.load().(*DynamicIndex)
	if !ok {
		return ErrNotDynamic
	}
	return f(di)
}

// InsertEdge adds the undirected edge {a,b} to a wrapped *DynamicIndex
// and returns the number of label entries repaired. See Update for the
// interaction with Swap.
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
// Swap does not replace it — and safe to query directly: a static
// variant never changes, and a *DynamicIndex is safe for concurrent use
// (its later inserts show in the snapshot too).
func (c *ConcurrentOracle) Snapshot() Oracle { return c.load() }

// Swap atomically installs o as the serving oracle and returns the
// previous one. Operations already running complete against the old
// oracle; every operation starting after Swap returns sees o. The
// swap itself never blocks on readers.
func (c *ConcurrentOracle) Swap(o Oracle) Oracle {
	old := c.state.Swap(&o)
	c.gen.Add(1)
	return *old
}

// Generation counts completed Swaps, starting at 0. Servers use it to
// tag cached results and report reloads.
func (c *ConcurrentOracle) Generation() uint64 { return c.gen.Load() }
