package main

import (
	"fmt"
	"math"
	"sort"

	"pll/internal/graph"
	"pll/internal/rng"
)

// The shared input: one Barabási–Albert graph, fixed for every workload
// and every seed, indexed with 16 bit-parallel roots and served from a
// flat container (what a pllserved operator deploys).
const (
	graphN      = 25000
	graphM      = 5
	graphSeed   = 20130622
	bitParallel = 16
	cacheSize   = 65536 // every replica's pair and result cache; pllserved defaults it to off

	hotPairs   = 20000 // pairs the Zipf-skewed workloads draw from
	zipfS      = 1.1
	batchSize  = 1024
	knnK       = 10
	updateStep = 100 // distance-update sends every 100th request as POST /update

	// heldOutSeed is kept out of every run made while writing or tuning
	// the benchmark; a later claim re-checks its gain on this seed.
	heldOutSeed = 90210
)

// A workload is one traffic mix. Its request list is a function of the
// workload seed alone and is generated before any server starts: the
// servers only ever see generated requests.
type workload struct {
	name    string
	routed  bool // a cluster coordinator over two replicas fronts the servers
	dynamic bool // serve a pll.BuildDynamic index and send POST /update
	// rate is a reference throughput in ops/s, at or above what the
	// workload reaches on a two-CPU container; it sizes the request list
	// so the window ends on time rather than on an exhausted list.
	rate float64
	// warmup is the number of requests at the head of the list replayed
	// before the window to fill connection pools, caches, the hedge
	// latency rings and the page cache.
	warmup int
	gen    func(w *workload, r *rng.RNG, g *graph.Graph, n int) *requests
}

var workloads = []*workload{
	// Uniform pairs straight to one server: the pair space dwarfs the
	// cache, so every request pays transport, middleware, handler and
	// JSON around a small label merge. Per-request-overhead changes show
	// here; merge-kernel changes barely move it.
	{name: "distance-uniform", rate: 44000, warmup: 20000, gen: genUniform},
	// Zipf-skewed pairs from a hot set that fits the cache, through a
	// coordinator over two replicas: the coordinator hop and cache hits
	// carry the work, the merge is nearly absent. Cluster and cache
	// changes show here and nowhere else.
	{name: "distance-routed-hot", routed: true, rate: 12500, warmup: 10000, gen: genHot},
	// Alternating 1024-target single-source batches and k=10 nearest
	// neighbours from the same uniform source: the DistanceFrom engine
	// and the hub search hold nearly all the time. Label-store, kernel
	// and search changes show here; per-request overhead barely does.
	{name: "sweep-mixed", rate: 2000, warmup: 400, gen: genSweep},
	// The routed-hot read mix straight to a dynamic index, with every
	// 100th request inserting one edge: writes take the write lock and
	// purge both caches. A read-side gain that costs writes shows here;
	// it is the only workload that runs incremental labelling.
	{name: "distance-update", dynamic: true, rate: 28000, warmup: 10000, gen: genUpdate},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

type opKind uint8

const (
	opDistance opKind = iota // GET /distance of pairs[ref]
	opBatch                  // POST /batch from sources[ref] to batchTargets(ref)
	opKNN                    // GET /knn?k=10 from sources[ref]
	opUpdate                 // POST /update inserting edges[ref]
)

// op is one request of the list; ref indexes the table its kind names.
type op struct {
	kind opKind
	ref  int32
}

// requests is a workload's request list plus the tables its ops index.
type requests struct {
	ops     []op
	warmup  int        // ops[:warmup] warm up; the window replays the rest
	pairs   [][2]int32 // /distance pairs (one per op, or the hot set)
	sources []int32    // /batch and /knn sources
	edges   [][2]int32 // /update edges, in list order
	seed    uint64     // derives the /batch target lists
}

// batchTargets regenerates the target list of /batch ref from the seed,
// so a long list of 1024-target batches costs no memory.
func (q *requests) batchTargets(ref int32, dst []int32) []int32 {
	r := rng.New(q.seed ^ (uint64(ref)+1)*0x9e3779b97f4a7c15)
	dst = dst[:0]
	for i := 0; i < batchSize; i++ {
		dst = append(dst, r.Int31n(graphN))
	}
	return dst
}

// callOf names the oracle call request req (op req-1) makes.
func (q *requests) callOf(req uint32) (call, bool) {
	if req == 0 || int(req) > len(q.ops) {
		return call{}, false
	}
	switch o := q.ops[req-1]; o.kind {
	case opDistance:
		return call{opDistance, q.pairs[o.ref][0], q.pairs[o.ref][1]}, true
	case opBatch, opKNN:
		return call{o.kind, q.sources[o.ref], 0}, true
	}
	return call{}, false
}

// listLen sizes a request list: the warm-up prefix plus 15% more window
// than the reference rate needs for the given seconds.
func (w *workload) listLen(seconds float64) int {
	return w.warmup + int(math.Ceil(w.rate*seconds*1.15))
}

func genUniform(w *workload, r *rng.RNG, _ *graph.Graph, n int) *requests {
	q := &requests{warmup: w.warmup, pairs: make([][2]int32, n), ops: make([]op, n)}
	for i := range q.ops {
		q.pairs[i] = [2]int32{r.Int31n(graphN), r.Int31n(graphN)}
		q.ops[i] = op{opDistance, int32(i)}
	}
	return q
}

// zipf draws ranks 0..n-1 with P(rank i) proportional to 1/(i+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += math.Pow(float64(i+1), -s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng.RNG) int32 {
	return int32(sort.SearchFloat64s(z.cdf, r.Float64()))
}

// hotSet draws the hot pairs uniformly; the Zipf rank of a draw indexes
// it, so the popular pairs are spread over the whole graph.
func hotSet(r *rng.RNG) [][2]int32 {
	hot := make([][2]int32, hotPairs)
	for i := range hot {
		hot[i] = [2]int32{r.Int31n(graphN), r.Int31n(graphN)}
	}
	return hot
}

func genHot(w *workload, r *rng.RNG, _ *graph.Graph, n int) *requests {
	q := &requests{warmup: w.warmup, pairs: hotSet(r), ops: make([]op, n)}
	z := newZipf(hotPairs, zipfS)
	for i := range q.ops {
		q.ops[i] = op{opDistance, z.draw(r)}
	}
	return q
}

func genSweep(w *workload, r *rng.RNG, _ *graph.Graph, n int) *requests {
	n += n % 2
	q := &requests{warmup: w.warmup + w.warmup%2, ops: make([]op, n), seed: r.Uint64()}
	// Sources are drawn without replacement, so a /knn repeats (and hits
	// the result cache) only once a list outgrows the vertex set.
	perm := r.Perm(graphN)
	q.sources = make([]int32, n/2)
	for i := range q.sources {
		q.sources[i] = perm[i%len(perm)]
		q.ops[2*i] = op{opBatch, int32(i)}
		q.ops[2*i+1] = op{opKNN, int32(i)}
	}
	return q
}

// genUpdate follows the hot read mix; in the window every 100th request
// inserts an edge absent from the graph and from earlier draws. The
// warm-up prefix is reads only.
func genUpdate(w *workload, r *rng.RNG, g *graph.Graph, n int) *requests {
	q := genHot(w, r, g, n)
	seen := make(map[[2]int32]bool)
	for i := q.warmup + updateStep - 1; i < n; i += updateStep {
		for {
			a, b := r.Int31n(graphN), r.Int31n(graphN)
			if a > b {
				a, b = b, a
			}
			if a == b || seen[[2]int32{a, b}] || g.HasEdge(a, b) {
				continue
			}
			seen[[2]int32{a, b}] = true
			q.ops[i] = op{opUpdate, int32(len(q.edges))}
			q.edges = append(q.edges, [2]int32{a, b})
			break
		}
	}
	return q
}
