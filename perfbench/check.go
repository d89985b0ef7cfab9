package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"pll/internal/bfs"
	"pll/internal/graph"
	"pll/internal/rng"
	"pll/pll"
)

// answers holds what every request of the list must return, computed
// in-process from the library on the served index before the servers
// start, plus what the window saw where that can only be checked after
// it (distance-update reads).
type answers struct {
	dist  []int64  // per pairs entry; for distance-update the distance before any insert
	batch []uint64 // digest of the /batch answer, per source
	knn   []uint64 // digest of the /knn neighbours, per source
	// direct holds, per hot pair, replica 0's /distance body when the
	// pair missed its cache and when it hit; every coordinator answer
	// must equal one of them byte for byte.
	direct [][2][]byte

	got        []int64 // distance-update: the distance each read returned, by op, or noAnswer
	inserted   []bool  // distance-update: whether each edge's /update succeeded
	labelDelta atomic.Int64

	mismatches atomic.Int64 // wrong answers outside the window requests
	logged     atomic.Int64
}

// noAnswer marks a distance-update read that got no 200 answer.
const noAnswer = math.MinInt64

// wrong reports one mismatch on stderr; only the first few are printed.
func (a *answers) wrong(format string, args ...any) {
	if a.logged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: "+format+"\n", args...)
	}
}

// parallel runs f(0..n-1) on one goroutine per CPU and waits for them.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// expect computes the expected answer of every request from o. A dynamic
// index is not safe for concurrent reads, so it is read from one
// goroutine.
func expect(o pll.Oracle, q *requests, dynamic bool) (*answers, error) {
	a := &answers{
		dist:  make([]int64, len(q.pairs)),
		batch: make([]uint64, len(q.sources)),
		knn:   make([]uint64, len(q.sources)),
	}
	run := parallel
	if dynamic {
		run = func(n int, f func(int)) {
			for i := 0; i < n; i++ {
				f(i)
			}
		}
	}
	run(len(q.pairs), func(i int) { a.dist[i] = o.Distance(q.pairs[i][0], q.pairs[i][1]) })
	if len(q.sources) == 0 {
		return a, nil
	}
	b, okB := o.(pll.Batcher)
	sr, okS := o.(pll.Searcher)
	if !okB || !okS {
		return nil, fmt.Errorf("%T cannot answer /batch and /knn", o)
	}
	var failed atomic.Value
	run(len(q.sources), func(i int) {
		targets := q.batchTargets(int32(i), nil)
		a.batch[i] = digestInts(b.DistanceFrom(q.sources[i], targets, nil))
		ns, err := sr.KNN(q.sources[i], knnK)
		if err != nil {
			failed.Store(err)
		}
		a.knn[i] = digestNeighbors(ns)
	})
	if err, _ := failed.Load().(error); err != nil {
		return nil, err
	}
	return a, nil
}

// FNV-1a over the little-endian bytes of each value: a compact,
// order-sensitive fingerprint of an answer vector.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, v int64) uint64 {
	for k := 0; k < 64; k += 8 {
		h ^= uint64(byte(v >> k))
		h *= fnvPrime
	}
	return h
}

func digestInts(ds []int64) uint64 {
	h := uint64(fnvOffset)
	for _, d := range ds {
		h = fnvAdd(h, d)
	}
	return h
}

func digestNeighbors(ns []pll.Neighbor) uint64 {
	h := uint64(fnvOffset)
	for _, n := range ns {
		h = fnvAdd(fnvAdd(h, int64(n.Vertex)), n.Distance)
	}
	return h
}

// field returns the bytes right after `"key":` in a JSON body.
func field(body []byte, key string) ([]byte, bool) {
	var pat [32]byte
	p := append(append(append(pat[:0], '"'), key...), '"', ':')
	i := bytes.Index(body, p)
	if i < 0 {
		return nil, false
	}
	return body[i+len(p):], true
}

// leadingInt parses the integer at the start of b and returns the rest.
func leadingInt(b []byte) (int64, []byte, bool) {
	end := 0
	if end < len(b) && b[end] == '-' {
		end++
	}
	for end < len(b) && b[end] >= '0' && b[end] <= '9' {
		end++
	}
	v, err := strconv.ParseInt(string(b[:end]), 10, 64)
	return v, b[end:], err == nil
}

// intField extracts an integer member of a JSON object body.
func intField(body []byte, key string) (int64, bool) {
	b, ok := field(body, key)
	if !ok {
		return 0, false
	}
	v, _, ok := leadingInt(b)
	return v, ok
}

// batchDigest digests the "distances" array of a /batch answer and
// counts its entries.
func batchDigest(body []byte) (uint64, int, bool) {
	b, ok := field(body, "distances")
	if !ok || len(b) == 0 || b[0] != '[' {
		return 0, 0, false
	}
	b = b[1:]
	h, n := uint64(fnvOffset), 0
	for len(b) > 0 && b[0] != ']' {
		v, rest, ok := leadingInt(b)
		if !ok {
			return 0, 0, false
		}
		h, n = fnvAdd(h, v), n+1
		if len(rest) > 0 && rest[0] == ',' {
			rest = rest[1:]
		}
		b = rest
	}
	return h, n, len(b) > 0
}

func knnDigest(body []byte) (uint64, bool) {
	var r struct {
		Neighbors []pll.Neighbor `json:"neighbors"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, false
	}
	return digestNeighbors(r.Neighbors), true
}

// check validates the body of a 200 answer to op i.
func (b *bench) check(i int, body []byte) bool {
	o, a := b.q.ops[i], b.ans
	switch o.kind {
	case opDistance:
		d, ok := intField(body, "distance")
		if !ok {
			a.wrong("op %d: unparsable /distance body %q", i, body)
			return false
		}
		if b.w.dynamic {
			a.got[i] = d // bounded by the distances before and after the window
			return true
		}
		if want := a.dist[o.ref]; d != want {
			p := b.q.pairs[o.ref]
			a.wrong("op %d: distance(%d,%d) = %d, want %d", i, p[0], p[1], d, want)
			return false
		}
		if a.direct != nil && !bytes.Equal(body, a.direct[o.ref][0]) && !bytes.Equal(body, a.direct[o.ref][1]) {
			a.wrong("op %d: coordinator body %q differs from the replica's %q", i, body, a.direct[o.ref][0])
			return false
		}
	case opBatch:
		h, n, ok := batchDigest(body)
		if !ok || n != batchSize || h != a.batch[o.ref] {
			a.wrong("op %d: /batch from %d: %d distances, digest mismatch", i, b.q.sources[o.ref], n)
			return false
		}
	case opKNN:
		h, ok := knnDigest(body)
		if !ok || h != a.knn[o.ref] {
			a.wrong("op %d: /knn from %d: neighbours differ", i, b.q.sources[o.ref])
			return false
		}
	case opUpdate:
		n, ok1 := intField(body, "inserted")
		delta, ok2 := intField(body, "label_delta")
		if !ok1 || !ok2 || n != 1 {
			a.wrong("op %d: /update body %q", i, body)
			return false
		}
		a.inserted[o.ref] = true
		a.labelDelta.Add(delta)
	}
	return true
}

// samplePairs draws n uniform pairs from a stream of the workload seed
// separate from the request lists.
func samplePairs(seed uint64, n int) [][2]int32 {
	r := rng.New(seed ^ 0x5bd1e995)
	out := make([][2]int32, n)
	for i := range out {
		out[i] = [2]int32{r.Int31n(graphN), r.Int31n(graphN)}
	}
	return out
}

// checkBFS compares o against breadth-first search on g for each pair
// and returns the number of disagreements.
func (a *answers) checkBFS(o pll.Oracle, g *graph.Graph, pairs [][2]int32) int {
	bad := 0
	for _, p := range pairs {
		want := int64(bfs.Distance(g, p[0], p[1]))
		if want < 0 {
			want = pll.Unreachable
		}
		if d := o.Distance(p[0], p[1]); d != want {
			a.wrong("library distance(%d,%d) = %d, BFS says %d", p[0], p[1], d, want)
			bad++
		}
	}
	a.mismatches.Add(int64(bad))
	return bad
}

// checkUpdates verifies distance-update after the window: every read
// returned a distance between the ones before and after the window's
// inserts, and the final index agrees with BFS on the graph plus the
// inserted edges. It returns the number of wrong reads among ops[from:to].
func (b *bench) checkUpdates(from, to int) (wrongReads int64, err error) {
	a, q := b.ans, b.q
	co := b.d.replicas[0].srv.Oracle()
	final := make([]int64, len(q.pairs))
	for i, p := range q.pairs {
		final[i] = co.Distance(p[0], p[1])
	}
	for i := from; i < to; i++ {
		o := q.ops[i]
		if o.kind != opDistance {
			continue
		}
		if d := a.got[i]; d != noAnswer && (d < final[o.ref] || d > a.dist[o.ref]) {
			p := q.pairs[o.ref]
			a.wrong("op %d: distance(%d,%d) = %d outside [%d, %d]", i, p[0], p[1], d, final[o.ref], a.dist[o.ref])
			wrongReads++
		}
	}
	edges := b.d.graph.Edges()
	for ref, ok := range a.inserted {
		if ok {
			edges = append(edges, graph.Edge{U: q.edges[ref][0], V: q.edges[ref][1]})
		}
	}
	g, err := graph.NewGraph(graphN, edges)
	if err != nil {
		return wrongReads, err
	}
	sample := samplePairs(b.seed+1, 50)
	sample = append(sample, q.pairs[:50]...)
	a.checkBFS(co, g, sample)
	return wrongReads, nil
}
