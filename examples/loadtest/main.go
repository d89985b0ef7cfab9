// Loadtest: a client load driver for the pllserved serving subsystem.
//
// It builds an index over a synthetic social network, serves it from an
// in-process internal/server instance (the same handlers cmd/pllserved
// mounts), then hammers it over real HTTP with concurrent workers:
// point queries on /distance, amortized single-source sweeps on /batch,
// and — halfway through the run — an atomic hot-reload of a freshly
// built index under full load, demonstrating that no request fails
// during the swap.
//
// Run with:
//
//	go run ./examples/loadtest [-workers 8] [-requests 2000] [-n 5000]
//
// Point it at an already-running server instead with -addr:
//
//	go run ./cmd/pllserved -index g.pllbox &
//	go run ./examples/loadtest -addr http://localhost:8355
//
// Saturation mode (-saturate) proves graceful degradation instead:
// the in-process server gets a concurrency cap of -cap, then 2×cap
// slow-client workers hammer it with amortized /batch sweeps whose
// uploads dribble in over a few milliseconds — the overload shape a
// concurrency cap exists for, where each admitted request holds its
// slot in wall-clock time. A healthy serving tier sheds the excess
// with immediate 429s (Retry-After set) while the admitted requests
// keep a bounded latency tail; the run reports p50/p99/p999 over
// admitted requests plus the shed rate and fails on any response that
// is neither 200 nor 429:
//
//	go run ./examples/loadtest -saturate [-cap 8] [-requests 4000]
//
// Distributed mode (-replicas N) measures the routing tier instead:
// one index served by N in-process replicas behind a cluster
// coordinator (the same wiring cmd/pllrouted mounts). The same point-
// query workload runs three ways — directly against one replica,
// through a coordinator with a single backend (isolating the proxy
// hop), and through a coordinator spreading keys over the whole pool —
// and the run reports the per-hop latency overhead and the QPS scaling
// factor:
//
//	go run ./examples/loadtest -replicas 3 [-workers 8] [-requests 2000]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pll/internal/cluster"
	"pll/internal/gen"
	"pll/internal/rng"
	"pll/internal/server"
	"pll/pll"
)

func main() {
	workers := flag.Int("workers", 8, "concurrent client goroutines")
	requests := flag.Int("requests", 2000, "total /distance requests")
	n := flag.Int("n", 5000, "vertices in the synthetic graph (in-process mode)")
	addr := flag.String("addr", "", "base URL of a running pllserved (empty starts one in-process)")
	saturate := flag.Bool("saturate", false, "saturation scenario: cap server concurrency at -cap, offer 2x that, report shed rate + tail latency")
	capInflight := flag.Int("cap", 8, "server concurrency cap for -saturate (in-process mode)")
	replicas := flag.Int("replicas", 0, "distributed scenario: serve the index from N replicas behind a cluster coordinator, report proxy overhead + QPS scaling")
	traceSample := flag.Float64("trace-sample", 0, "head-sampling rate for the in-process server's tracer (overhead experiments)")
	flag.Parse()

	if *replicas > 0 {
		if *addr != "" {
			log.Fatal("-replicas starts its own in-process pool; it cannot combine with -addr")
		}
		runReplicas(*n, *replicas, *workers, *requests)
		return
	}

	cfg := server.Config{CacheSize: 4096}
	if *saturate {
		// No caching in saturation mode: every admitted request must pay
		// the real /batch scan, or the workload would not saturate.
		cfg = server.Config{MaxInflight: *capInflight}
	}
	cfg.TraceSampleRate = *traceSample
	base := *addr
	var srv *server.Server
	if base == "" {
		var err error
		base, srv, err = startInProcess(*n, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	client := &http.Client{Timeout: 10 * time.Second}
	numV := probeVertices(client, base)

	if *saturate {
		runSaturation(client, base, *capInflight, *requests, numV)
		return
	}
	fmt.Printf("target: %s (%d vertices), %d workers, %d requests\n",
		base, numV, *workers, *requests)

	// Phase 1: concurrent point queries, with one hot-reload fired
	// mid-flight when we own the server.
	if srv != nil {
		// Swap in a rebuilt index while every worker is mid-loop.
		go func() {
			time.Sleep(50 * time.Millisecond)
			if _, err := srv.Reload(indexPath); err != nil {
				log.Printf("hot-reload failed: %v", err)
			} else {
				fmt.Printf("hot-reloaded the index under load (generation %d)\n",
					srv.Oracle().Generation())
			}
		}()
	}
	all, failed, elapsed := measurePoint(client, base, *workers, *requests, numV, 1000)
	fmt.Printf("point queries: %d ok, %d failed in %v (%.0f req/s)\n",
		len(all), failed, elapsed.Round(time.Millisecond),
		float64(len(all))/elapsed.Seconds())
	if len(all) > 0 {
		fmt.Printf("latency: p50=%v p95=%v p99=%v max=%v\n",
			pct(all, 50), pct(all, 95), pct(all, 99), all[len(all)-1])
	}

	// Phase 2: one amortized single-source batch covering 1000 targets.
	targets := make([]int32, 0, 1000)
	for i := 0; i < 1000 && i < numV; i++ {
		targets = append(targets, int32(i))
	}
	src := int32(0)
	body, _ := json.Marshal(map[string]any{"source": src, "targets": targets})
	q := time.Now()
	resp, err := client.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var batch struct {
		Count int `json:"count"`
	}
	json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	fmt.Printf("batch: %d single-source distances in %v (%.2f us/pair amortized)\n",
		batch.Count, time.Since(q).Round(time.Microsecond),
		float64(time.Since(q).Microseconds())/float64(max(batch.Count, 1)))

	if failed > 0 {
		os.Exit(1)
	}
}

// measurePoint drives the /distance workload: workers concurrent
// clients, each issuing uniformly random (s, t) lookups. It returns the
// sorted per-request latencies of the successful lookups, the failure
// count, and the wall-clock elapsed time.
func measurePoint(client *http.Client, base string, workers, requests, numV, seedBase int) ([]time.Duration, int64, time.Duration) {
	var failures atomic.Int64
	latencies := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	perWorker := requests / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.New(uint64(seedBase + id))
			lat := make([]time.Duration, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				s, t := r.Int31n(int32(numV)), r.Int31n(int32(numV))
				q := time.Now()
				resp, err := client.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", base, s, t))
				if err != nil {
					failures.Add(1)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				lat = append(lat, time.Since(q))
			}
			latencies[id] = lat
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, failures.Load(), elapsed
}

// runReplicas measures the distributed tier: one index served by
// -replicas in-process server instances behind a cluster coordinator.
// Caching is disabled so the three measurements differ only in the
// serving topology, and each target gets a warmup pass so connection
// pools are established before the measured run.
func runReplicas(n, replicas, workers, requests int) {
	raw := gen.BarabasiAlbert(n, 4, 42)
	g, err := pll.NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		log.Fatal(err)
	}
	buildStart := time.Now()
	ix, err := pll.Build(g, pll.WithBitParallel(16))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built index over %d vertices in %v\n", n, time.Since(buildStart).Round(time.Millisecond))

	serve := func(h http.Handler) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, h)
		return "http://" + ln.Addr().String()
	}
	urls := make([]string, replicas)
	for i := range urls {
		urls[i] = serve(server.New(pll.NewConcurrentOracle(ix), server.Config{}).Handler())
	}
	startCoord := func(backends []string) string {
		coord, err := cluster.New(cluster.Config{Backends: backends})
		if err != nil {
			log.Fatal(err)
		}
		return serve(coord.Handler())
	}
	coord1 := startCoord(urls[:1])
	coordN := startCoord(urls)

	// The default transport idles only two connections per host; with
	// every worker hammering one host that would churn a fresh TCP
	// connection per request and measure the dialer, not the server.
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64},
	}
	// Probing the coordinator (not a replica) also proves its /healthz
	// carries the pooled index identity the probe reads.
	numV := probeVertices(client, coordN)
	fmt.Printf("distributed: %d replicas behind one coordinator, %d workers, %d /distance requests per target\n",
		replicas, workers, requests)

	type result struct {
		lat     []time.Duration
		failed  int64
		elapsed time.Duration
	}
	var results []result
	for _, tgt := range []struct{ name, base string }{
		{"direct (replica 0)", urls[0]},
		{"coordinator, 1 replica", coord1},
		{fmt.Sprintf("coordinator, %d replicas", replicas), coordN},
	} {
		measurePoint(client, tgt.base, workers, requests/4, numV, 7000)
		lat, failed, elapsed := measurePoint(client, tgt.base, workers, requests, numV, 1000)
		res := result{lat, failed, elapsed}
		results = append(results, res)
		line := fmt.Sprintf("%-24s %d ok, %d failed in %v (%.0f req/s)",
			tgt.name+":", len(lat), failed, elapsed.Round(time.Millisecond),
			float64(len(lat))/elapsed.Seconds())
		if len(lat) > 0 {
			line += fmt.Sprintf("  p50=%v p99=%v", pct(lat, 50), pct(lat, 99))
		}
		fmt.Println(line)
	}

	direct, one, all := results[0], results[1], results[2]
	if len(direct.lat) == 0 || len(one.lat) == 0 || len(all.lat) == 0 {
		fmt.Println("FAIL: a target answered no requests")
		os.Exit(1)
	}
	fmt.Printf("coordinator hop overhead: p50 %+v, p99 %+v\n",
		(pct(one.lat, 50) - pct(direct.lat, 50)).Round(time.Microsecond),
		(pct(one.lat, 99) - pct(direct.lat, 99)).Round(time.Microsecond))
	for _, r := range results {
		if r.failed > 0 {
			fmt.Println("FAIL: requests failed")
			os.Exit(1)
		}
	}

	// Phase B: QPS scaling. On one host every in-process replica shares
	// the same cores, so raw throughput cannot scale with the pool; what
	// scales in a real deployment is per-node capacity. Emulate that
	// with each replica's own admission limiter — RatePerSec is a wall-
	// clock bound, independent of shared CPU — and offer more load than
	// the pool admits: the coordinator's admitted QPS must then track
	// the number of replicas behind it, because rendezvous routing
	// spreads the keys across every replica's token bucket.
	const perReplicaRate = 400
	capped := make([]string, replicas)
	for i := range capped {
		capped[i] = serve(server.New(pll.NewConcurrentOracle(ix),
			server.Config{RatePerSec: perReplicaRate, RateBurst: 40}).Handler())
	}
	// A fixed 250ms hedge delay keeps hedges out of the measurement:
	// shed 429s answer in microseconds and would otherwise drag the
	// adaptive delay down until every admitted request hedges.
	cappedCoord := func(backends []string) string {
		coord, err := cluster.New(cluster.Config{Backends: backends, HedgeAfter: 250 * time.Millisecond})
		if err != nil {
			log.Fatal(err)
		}
		return serve(coord.Handler())
	}
	offered := 3 * requests
	fmt.Printf("scaling: each replica capped at %d admitted req/s, %d offered per target\n",
		perReplicaRate, offered)
	var admittedQPS []float64
	for _, tgt := range []struct {
		name     string
		backends []string
	}{
		{"coordinator, 1 capped replica", capped[:1]},
		{fmt.Sprintf("coordinator, %d capped replicas", replicas), capped},
	} {
		ok, shed, failed, elapsed := measureAdmitted(client, cappedCoord(tgt.backends), workers, offered, numV, 3000)
		qps := float64(ok) / elapsed.Seconds()
		admittedQPS = append(admittedQPS, qps)
		fmt.Printf("%-31s admitted %d (%.0f req/s), shed %d, failed %d in %v\n",
			tgt.name+":", ok, qps, shed, failed, elapsed.Round(time.Millisecond))
		if failed > 0 {
			fmt.Println("FAIL: responses that were neither 200 nor 429")
			os.Exit(1)
		}
	}
	fmt.Printf("scaling: %d-replica pool admitted %.2fx the single-replica QPS\n",
		replicas, admittedQPS[1]/admittedQPS[0])
}

// measureAdmitted drives /distance at full speed and classifies the
// responses: 200 admitted, 429 shed by a replica's admission limiter
// (and relayed by the coordinator with its Retry-After), anything else
// a failure.
func measureAdmitted(client *http.Client, base string, workers, requests, numV, seedBase int) (int64, int64, int64, time.Duration) {
	var ok, shed, failed atomic.Int64
	var wg sync.WaitGroup
	perWorker := requests / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.New(uint64(seedBase + id))
			for i := 0; i < perWorker; i++ {
				s, t := r.Int31n(int32(numV)), r.Int31n(int32(numV))
				resp, err := client.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", base, s, t))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return ok.Load(), shed.Load(), failed.Load(), time.Since(start)
}

// indexPath is where the in-process mode persists its index so the
// hot-reload demonstration has a file to re-read.
var indexPath string

// pause is an io.Reader that sleeps once, then reports EOF; stitched
// between two body halves with io.MultiReader it turns a request into
// a slow client whose upload dribbles in over the wire.
type pause struct {
	d    time.Duration
	done bool
}

func (p *pause) Read([]byte) (int, error) {
	if !p.done {
		time.Sleep(p.d)
		p.done = true
	}
	return 0, io.EOF
}

// runSaturation drives the server past its concurrency cap with the
// overload shape the cap exists for: slow clients. Each /batch upload
// arrives in two segments a few milliseconds apart, so the handler
// holds its concurrency slot in wall-clock time (blocked in the body
// read) rather than just a CPU burst — on a WAN that is every client.
// With offered concurrency at 2× the cap, the excess requests find no
// free slot and shed immediately with 429 + Retry-After, while the
// admitted requests keep a bounded latency near the uncontended
// service time. The run reports shed rate and p50/p99/p999 over
// admitted requests, and fails on any response that is neither 200
// nor a header-complete 429 — degradation must be graceful, never a
// collapse or a crash.
func runSaturation(client *http.Client, base string, capSlots, requests, numV int) {
	workers := 2 * capSlots
	perWorker := requests / workers
	targets := make([]int32, 0, 1000)
	for i := 0; i < 1000 && i < numV; i++ {
		targets = append(targets, int32(i))
	}
	const uploadStall = 2 * time.Millisecond
	fmt.Printf("saturation: concurrency cap %d, %d slow-client workers (2x cap), %d /batch requests of %d targets, %v upload stall\n",
		capSlots, workers, workers*perWorker, len(targets), uploadStall)

	var okLat []time.Duration
	var mu sync.Mutex
	var shed, failed, noRetryAfter atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.New(uint64(9000 + id))
			lat := make([]time.Duration, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				src := r.Int31n(int32(numV))
				body, _ := json.Marshal(map[string]any{"source": src, "targets": targets})
				half := len(body) / 2
				req, err := http.NewRequest(http.MethodPost, base+"/batch", io.MultiReader(
					bytes.NewReader(body[:half]), &pause{d: uploadStall}, bytes.NewReader(body[half:])))
				if err != nil {
					failed.Add(1)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				req.ContentLength = int64(len(body))
				q := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					failed.Add(1)
					continue
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					lat = append(lat, time.Since(q))
				case http.StatusTooManyRequests:
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						noRetryAfter.Add(1)
					}
				default:
					failed.Add(1)
				}
			}
			mu.Lock()
			okLat = append(okLat, lat...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
	total := len(okLat) + int(shed.Load()) + int(failed.Load())
	fmt.Printf("offered: %d requests in %v; admitted %d (%.0f req/s), shed %d (%.1f%%), failed %d\n",
		total, elapsed.Round(time.Millisecond), len(okLat),
		float64(len(okLat))/elapsed.Seconds(), shed.Load(),
		100*float64(shed.Load())/float64(max(total, 1)), failed.Load())
	if len(okLat) > 0 {
		fmt.Printf("admitted latency: p50=%v p99=%v p999=%v max=%v\n",
			pct(okLat, 50), pct(okLat, 99), pctN(okLat, 999, 1000), okLat[len(okLat)-1])
	}
	if n := noRetryAfter.Load(); n > 0 {
		fmt.Printf("FAIL: %d shed responses missing Retry-After\n", n)
		os.Exit(1)
	}
	if failed.Load() > 0 {
		fmt.Printf("FAIL: %d responses were neither 200 nor 429\n", failed.Load())
		os.Exit(1)
	}
	fmt.Println("saturation: graceful degradation confirmed (only 200s and header-complete 429s)")
}

// startInProcess builds a Barabasi-Albert index, writes it to a temp
// container file, and serves it on a loopback listener.
func startInProcess(n int, cfg server.Config) (string, *server.Server, error) {
	raw := gen.BarabasiAlbert(n, 4, 42)
	g, err := pll.NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		return "", nil, err
	}
	start := time.Now()
	ix, err := pll.Build(g, pll.WithBitParallel(16))
	if err != nil {
		return "", nil, err
	}
	fmt.Printf("built index over %d vertices in %v\n", n, time.Since(start).Round(time.Millisecond))

	dir, err := os.MkdirTemp("", "pll-loadtest")
	if err != nil {
		return "", nil, err
	}
	indexPath = filepath.Join(dir, "loadtest.pllbox")
	if err := pll.WriteFlatFile(indexPath, ix); err != nil {
		return "", nil, err
	}

	cfg.IndexPath = indexPath
	srv := server.New(pll.NewConcurrentOracle(ix), cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go http.Serve(ln, srv.Handler())
	return "http://" + ln.Addr().String(), srv, nil
}

// probeVertices asks /healthz for the served vertex count.
func probeVertices(client *http.Client, base string) int {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		log.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Vertices int `json:"vertices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Vertices == 0 {
		log.Fatalf("healthz: bad response (err=%v)", err)
	}
	return h.Vertices
}

// pct returns the p-th percentile of sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	return pctN(sorted, p, 100)
}

// pctN returns the (p/q)-quantile of sorted latencies (p999 = 999/1000).
func pctN(sorted []time.Duration, p, q int) time.Duration {
	i := len(sorted) * p / q
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
