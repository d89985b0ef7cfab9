package main

// In-process replays for the traced run: layers whose cost is too small
// or too entangled to read from spans are timed by replaying the
// workload's own requests straight into them.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"pll/internal/gen"
	"pll/internal/server"
	"pll/pll"
)

const replayRounds = 7

// discard is a reusable ResponseWriter, so a replay measures the handler
// and not a recorder.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

func (d *discard) reset() { clear(d.h) }

// handlerRequests builds the server-side requests of ops[from:to],
// skipping updates, so a replay cannot change the index.
func (b *bench) handlerRequests(from, to int) []*http.Request {
	var out []*http.Request
	var scratch []int32
	for i := from; i < to; i++ {
		if b.q.ops[i].kind == opUpdate {
			continue
		}
		method, target, body := b.q.target(i, &scratch, nil)
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		req.Header.Set("traceparent", traceparent(uint32(i+1), uint32(i+1)))
		out = append(out, req)
	}
	return out
}

// medianDiff times a and b over the same requests in alternating rounds
// and returns the median of (b - a) per request, in ns.
func medianDiff(n int, a, b func()) float64 {
	diffs := make([]float64, replayRounds)
	for r := range diffs {
		t := time.Now()
		a()
		ta := time.Since(t)
		t = time.Now()
		b()
		diffs[r] = float64(time.Since(t)-ta) / float64(n)
	}
	sort.Float64s(diffs)
	return diffs[len(diffs)/2]
}

// stackNs is the cost of the server.Stack middleware (in-flight count,
// trace id, metrics, admission) around a handler that does nothing.
func stackNs(reqs []*http.Request) float64 {
	names := []string{"distance", "batch", "knn"}
	st := server.NewStack(server.StackConfig{}, names...)
	noop := func(http.ResponseWriter, *http.Request) {}
	wrapped := map[string]http.Handler{}
	for _, n := range names {
		wrapped[n] = st.Wrap(st.Guarded(n, noop))
	}
	w := &discard{h: http.Header{}}
	bare := func() {
		for _, r := range reqs {
			w.reset()
			noop(w, r)
		}
	}
	stacked := func() {
		for _, r := range reqs {
			w.reset()
			wrapped[strings.TrimPrefix(r.URL.Path, "/")].ServeHTTP(w, r)
		}
	}
	return medianDiff(len(reqs), bare, stacked)
}

// allocsPerOp replays requests through h and reports the heap
// allocations and bytes per request.
func allocsPerOp(h http.Handler, reqs []*http.Request) (allocs, bytes float64) {
	w := &discard{h: http.Header{}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		w.reset()
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(reqs))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

// concurrentSelfNs is what ConcurrentOracle adds to a distance query on
// the path the server takes (View, then the snapshot's Distance) over
// calling the index directly. A few hundred of the window's pairs are
// replayed until their labels sit in the CPU caches, so the difference
// is not lost in the noise of memory-bound merges; rounds alternate
// which side runs first.
func concurrentSelfNs(co *pll.ConcurrentOracle, direct pll.Oracle, pairs [][2]int32) float64 {
	pairs = pairs[:min(len(pairs), 256)]
	const reps = 16
	var sink int64
	plain := func() {
		for k := 0; k < reps; k++ {
			for _, p := range pairs {
				sink += direct.Distance(p[0], p[1])
			}
		}
	}
	viewed := func() {
		for k := 0; k < reps; k++ {
			for _, p := range pairs {
				co.View(func(o pll.Oracle) error { //nolint:errcheck // the callback never fails
					sink += o.Distance(p[0], p[1])
					return nil
				})
			}
		}
	}
	plain()
	diffs := make([]float64, 41)
	for r := range diffs {
		first, second := plain, viewed
		if r%2 == 1 {
			first, second = viewed, plain
		}
		t := time.Now()
		first()
		t1 := time.Since(t)
		t = time.Now()
		second()
		t2 := time.Since(t)
		if r%2 == 1 {
			t1, t2 = t2, t1
		}
		diffs[r] = float64(t2-t1) / float64(reps*len(pairs))
	}
	_ = sink
	sort.Float64s(diffs)
	return diffs[len(diffs)/2]
}

// replayPairs lists up to n distance pairs the window asked about; for
// sweep-mixed, the source of each batch with its targets.
func (b *bench) replayPairs(from, to, n int) [][2]int32 {
	var out [][2]int32
	var scratch []int32
	for i := from; i < to && len(out) < n; i++ {
		switch o := b.q.ops[i]; o.kind {
		case opDistance:
			out = append(out, b.q.pairs[o.ref])
		case opBatch:
			scratch = b.q.batchTargets(o.ref, scratch)
			for _, t := range scratch {
				out = append(out, [2]int32{b.q.sources[o.ref], t})
			}
		}
	}
	return out[:min(n, len(out))]
}

// insertUs rebuilds the dynamic index and times ConcurrentOracle.InsertEdge
// over the edges the window inserted, in the same order.
func insertUs(edges [][2]int32) (float64, error) {
	raw := gen.BarabasiAlbert(graphN, graphM, graphSeed)
	g, err := pll.NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		return 0, err
	}
	di, err := pll.BuildDynamic(g)
	if err != nil {
		return 0, err
	}
	co := pll.NewConcurrentOracle(di)
	t := time.Now()
	for _, e := range edges {
		if _, err := co.InsertEdge(e[0], e[1]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t)) / 1e3 / float64(max(len(edges), 1)), nil
}
