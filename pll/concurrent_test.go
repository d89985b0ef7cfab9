package pll

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
)

// line returns the path graph 0-1-...-(n-1).
func line(n int) *Graph {
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{U: int32(i), V: int32(i + 1)}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestConcurrentOracleStatic(t *testing.T) {
	ix, err := Build(line(6))
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrentOracle(ix)
	if d := c.Distance(0, 5); d != 5 {
		t.Fatalf("Distance(0,5) = %d, want 5", d)
	}
	if c.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d", c.NumVertices())
	}
	if _, err := c.InsertEdge(0, 5); err != ErrNotDynamic {
		t.Fatalf("InsertEdge on static = %v, want ErrNotDynamic", err)
	}
	if got := c.Stats().Variant; got != VariantUndirected {
		t.Fatalf("variant = %v", got)
	}
	if c.Snapshot() != Oracle(ix) {
		t.Fatal("Snapshot should return the wrapped oracle")
	}
}

func TestConcurrentOracleDynamicUpdates(t *testing.T) {
	di, err := BuildDynamic(line(6))
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrentOracle(di)
	if d := c.Distance(0, 5); d != 5 {
		t.Fatalf("before insert: Distance(0,5) = %d, want 5", d)
	}
	if _, err := c.InsertEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	if d := c.Distance(0, 5); d != 1 {
		t.Fatalf("after insert: Distance(0,5) = %d, want 1", d)
	}
}

func TestConcurrentOracleSwap(t *testing.T) {
	small, err := Build(line(4))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(line(10))
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrentOracle(small)
	if g := c.Generation(); g != 0 {
		t.Fatalf("fresh generation = %d", g)
	}
	old := c.Swap(big)
	if old != Oracle(small) {
		t.Fatal("Swap should return the previous oracle")
	}
	if c.Generation() != 1 {
		t.Fatalf("generation after swap = %d", c.Generation())
	}
	if c.NumVertices() != 10 {
		t.Fatalf("NumVertices after swap = %d", c.NumVertices())
	}
	if d := c.Distance(0, 9); d != 9 {
		t.Fatalf("Distance(0,9) = %d, want 9", d)
	}
}

func TestConcurrentOracleView(t *testing.T) {
	ix, err := Build(line(5))
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrentOracle(ix)
	var n int
	if err := c.View(func(o Oracle) error {
		n = o.NumVertices()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("View saw %d vertices", n)
	}
}

// TestConcurrentOracleRace hammers a dynamic index with concurrent
// readers, one writer inserting shortcut edges, and one swapper
// hot-replacing the whole oracle. Run with -race; correctness of each
// read is only sanity-checked (distances never increase under edge
// insertion on a fixed generation, but swaps reset the oracle, so the
// invariant here is just "exact index answers stay in range").
func TestConcurrentOracleRace(t *testing.T) {
	const n = 40
	di, err := BuildDynamic(line(n))
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrentOracle(di)

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int32) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := (seed + int32(i)) % n
				tt := (seed + 2*int32(i)) % n
				d := c.Distance(s, tt)
				if d < 0 || d >= n {
					t.Errorf("Distance(%d,%d) = %d out of range", s, tt, d)
					return
				}
				c.NumVertices()
			}
		}(int32(r))
	}

	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := int32(0); i < n-2; i++ {
			if _, err := c.InsertEdge(i, i+2); err != nil && err != ErrNotDynamic {
				t.Errorf("InsertEdge: %v", err)
				return
			}
		}
	}()

	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 5; i++ {
			fresh, err := BuildDynamic(line(n))
			if err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
			c.Swap(fresh)
		}
	}()

	// Let the writer and swapper finish under reader pressure, then
	// release the readers.
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestDynamicReadsSeeOnePublishedVersion runs a bare *DynamicIndex,
// with no ConcurrentOracle, under one writer and four readers (run it
// with -race). On the 60-vertex path the writer inserts the shortcuts
// (i, i+5) in order, one InsertEdges call each, while the readers loop
// DistanceFrom(0, every vertex). Every answer must equal the BFS vector
// after some prefix of the sequence, and a reader's successive answers
// never go back to an earlier prefix. One WriteTo and Load round trip
// mid-run must also load a prefix.
func TestDynamicReadsSeeOnePublishedVersion(t *testing.T) {
	const n = 60
	base := line(n)
	var shortcuts []Edge
	for i := int32(0); i+5 < n; i++ {
		shortcuts = append(shortcuts, Edge{U: i, V: i + 5})
	}
	// prefixes[k] is the BFS vector from 0 after the first k shortcuts.
	prefixes := make([][]int64, len(shortcuts)+1)
	for k := range prefixes {
		g, err := graph.NewGraph(n, append(base.Edges(), shortcuts[:k]...))
		if err != nil {
			t.Fatal(err)
		}
		prefixes[k] = make([]int64, n)
		for v, d := range bfs.AllDistances(g, 0) {
			prefixes[k][v] = int64(d)
		}
	}
	// match returns the first prefix at or after lo that equals got, or
	// -1. Distances only fall as shortcuts arrive, so the prefixes equal
	// to one answer are consecutive.
	match := func(got []int64, lo int) int {
		for k := lo; k < len(prefixes); k++ {
			if slices.Equal(got, prefixes[k]) {
				return k
			}
		}
		return -1
	}
	targets := make([]int32, n)
	for v := range targets {
		targets[v] = int32(v)
	}

	di, err := BuildDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	var readers sync.WaitGroup
	done, half := make(chan struct{}), make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var dst []int64
			lo := 0
			for last := false; !last; {
				select {
				case <-done:
					last = true // one more read sees the final version
				default:
				}
				dst = di.DistanceFrom(0, targets, dst)
				k := match(dst, lo)
				if k < 0 {
					t.Errorf("DistanceFrom(0, all) = %v: no prefix at or after %d has it", dst, lo)
					return
				}
				lo = k
			}
			if want := prefixes[len(shortcuts)]; !slices.Equal(dst, want) {
				t.Errorf("read after the last insert = %v, want %v", dst, want)
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		select {
		case <-half:
		case <-done: // the writer stopped early
		}
		var buf bytes.Buffer
		if _, err := di.WriteTo(&buf); err != nil {
			t.Error(err)
			return
		}
		o, err := Load(&buf)
		if err != nil {
			t.Error(err)
			return
		}
		if got := o.(Batcher).DistanceFrom(0, targets, nil); match(got, 0) < 0 {
			t.Errorf("mid-run WriteTo and Load answer %v: no prefix has it", got)
		}
	}()
	for i, e := range shortcuts {
		if i == len(shortcuts)/2 {
			close(half)
		}
		if _, err := di.InsertEdges([]Edge{e}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	readers.Wait()
}

// BenchmarkConcurrentOracleDynamicDistance reads random pairs through a
// ConcurrentOracle over a dynamic index from GOMAXPROCS goroutines, with
// no writer: the cost the wrapper adds to every dynamic read, which
// perfbench reports as pll.concurrent.self_ns.
func BenchmarkConcurrentOracleDynamicDistance(b *testing.B) {
	raw := gen.BarabasiAlbert(5000, 4, 1)
	g, err := NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		b.Fatal(err)
	}
	di, err := BuildDynamic(g)
	if err != nil {
		b.Fatal(err)
	}
	c := NewConcurrentOracle(di)
	n := int32(g.NumVertices())
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(seed.Add(1))
		var sum int64
		for pb.Next() {
			sum += c.Distance(r.Int31n(n), r.Int31n(n))
		}
		distanceSink.Add(sum)
	})
}

// distanceSink keeps benchmarked reads from being optimized away.
var distanceSink atomic.Int64
