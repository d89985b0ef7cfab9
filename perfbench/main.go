// Command perfbench is the repository's serving benchmark. For one
// workload it builds the index of a fixed Barabási–Albert graph, serves
// it through the real internal/server handler (behind the real
// internal/cluster coordinator for the routed workload) on loopback
// listeners inside this process, replays a request list generated from
// the seed in a closed loop from one client per CPU and server tier
// (one per two CPUs for the routed workload), checks every
// answer, and prints the end-to-end metrics. With -trace 1 it splits
// the window into an untraced and a traced half and prints the
// per-layer metrics instead. The last line of standard output is one
// JSON object; the exit status is nonzero on any wrong answer.
//
//	go run . -workload distance-uniform -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"pll/internal/gen"
	"pll/internal/rng"
	"pll/internal/server"
	"pll/pll"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "workload seed: generates the request list and the inserted edges")
	seconds := flag.Float64("seconds", 10, "length of the measurement window")
	traced := flag.Int("trace", 0, "1 splits the window into an untraced and a traced half and prints the per-layer metrics")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

func run(w *workload, seed uint64, window time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The request list and the inserted edges come from the seed before
	// any server starts.
	b := &bench{w: w, seed: seed}
	b.q = w.gen(w, rng.New(seed), gen.BarabasiAlbert(graphN, graphM, graphSeed), w.listLen(window.Seconds()))
	if traced {
		perOp := 3 // client, server, oracle
		if w.routed {
			perOp = 4 // and the coordinator
		}
		b.rec = newRecorder(len(b.q.ops), (len(b.q.ops)-b.q.warmup)*perOp*3/5, b.q.callOf)
	}

	var times []stages
	for k := 0; k < setups; k++ {
		var prepare func(*deployment) error
		if k == setups-1 {
			prepare = b.prepare
		}
		d, st, err := setup(w, filepath.Join(dir, "index.pll"), b.rec, prepare)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, st)
		if k < setups-1 {
			d.close()
			runtime.GC()
			continue
		}
		b.d = d
	}
	defer b.d.close()
	b.newClients()
	defer b.closeClients()
	if w.routed {
		if err := b.collectDirect(); err != nil {
			return nil, err
		}
	}
	// rss_mb is the peak while serving: set-up garbage goes back to the
	// OS first, and the peak restarts before the warm-up.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := b.window(0, b.q.warmup, time.Hour); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	rep := &report{b: b, setups: times}
	n := len(b.q.ops)
	if !traced {
		if rep.main, err = b.window(b.q.warmup, n, window); err != nil {
			return nil, err
		}
	} else {
		if rep.main, err = b.window(b.q.warmup, n, window/2); err != nil {
			return nil, err
		}
		b.rec.on.Store(true)
		rep.traced, err = b.window(rep.main.to, n, window/2)
		b.rec.on.Store(false)
		if err != nil {
			return nil, err
		}
		// A handler may still be finishing its span after the client has
		// its answer; the analysis waits for every one.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.d.stopServing(ctx)
		cancel()
	}
	last := rep.main.to
	if traced {
		last = rep.traced.to
	}
	if w.dynamic {
		if rep.wrongReads, err = b.checkUpdates(b.q.warmup, last); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := rep.layers(filepath.Join(".bench_build", "spans")); err != nil {
			return nil, err
		}
	}
	if rep.rssBytes, err = peakRSS(); err != nil {
		return nil, err
	}

	res := &result{
		Attempted: rep.main.attempted + rep.traced.attempted,
		Failed:    rep.main.failed + rep.traced.failed + rep.wrongReads + b.ans.mismatches.Load(),
	}
	res.Correct = res.Failed == 0
	if traced {
		res.Metrics = rep.perLayer
	} else {
		res.Metrics = rep.endToEnd()
	}
	rep.print(os.Stdout, traced)
	return res, nil
}

// prepare runs inside the last set-up, after the index is open and
// before the servers start: it computes the expected answer to every
// request and checks the library itself against BFS.
func (b *bench) prepare(d *deployment) error {
	a, err := expect(d.oracle(), b.q, b.w.dynamic)
	if err != nil {
		return fmt.Errorf("expected answers: %w", err)
	}
	if b.w.dynamic {
		a.got = make([]int64, len(b.q.ops))
		for i := range a.got {
			a.got[i] = noAnswer
		}
		a.inserted = make([]bool, len(b.q.edges))
	}
	b.ans = a
	a.checkBFS(d.oracle(), d.graph, samplePairs(b.seed, 100))
	return nil
}

// collectDirect asks a replica for every hot pair twice, once missing its
// cache and once hitting it, so every coordinator answer can be compared
// with a direct one byte for byte. The replica is built like the pool's,
// on replica 0's index, but stays outside the pool: asking a pool member
// would warm its cache with the whole hot set. A pair the hot set holds
// twice takes its first copy's answers, as its own first ask would hit.
func (b *bench) collectDirect() error {
	q, a := b.q, b.ans
	h := server.New(pll.NewConcurrentOracle(b.d.replicas[0].flat), server.Config{CacheSize: cacheSize}).Handler()
	a.direct = make([][2][]byte, len(q.pairs))
	first := make(map[[2]int32]int, len(q.pairs))
	for i, p := range q.pairs {
		if j, ok := first[p]; ok {
			a.direct[i] = a.direct[j]
			continue
		}
		first[p] = i
		target := fmt.Sprintf("/distance?s=%d&t=%d", p[0], p[1])
		for k := range a.direct[i] {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			if w.Code != http.StatusOK {
				return fmt.Errorf("direct answer to %s: status %d: %s", target, w.Code, w.Body.Bytes())
			}
			a.direct[i][k] = w.Body.Bytes()
		}
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// stageMedian is the median over the set-ups of one stage, in seconds.
func stageMedian(times []stages, f func(stages) time.Duration) float64 {
	v := make([]float64, len(times))
	for i, t := range times {
		v[i] = f(t).Seconds()
	}
	return median(v)
}
