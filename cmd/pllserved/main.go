// Command pllserved serves a pruned-landmark-labeling index over
// HTTP/JSON. It accepts any .pllbox container (the variant is
// auto-detected from the header) and memory-maps it, serving zero-copy,
// so startup and SIGHUP reloads skip the decode pass entirely. It
// answers distance queries in microseconds while supporting
// zero-downtime index replacement.
//
// Usage:
//
//	pllserved -index g.pllbox [-addr :8355] [-cache 65536]
//	pllserved -graph g.txt -dynamic [-addr :8355]   # updatable index built at startup
//
// Endpoints:
//
//	GET  /healthz                 liveness + vertex count (never rate limited)
//	GET  /distance?s=0&t=42       exact distance (or reachable:false)
//	GET  /path?s=0&t=42           one shortest path (index built with -paths)
//	POST /batch                   {"pairs":[[s,t],...]} or {"source":s,"targets":[...]}
//	GET  /knn?s=0&k=10            k nearest vertices by exact distance
//	GET  /range?s=0&r=3           vertices within distance r, nearest first (&limit=N)
//	POST /nearest                 {"source":s,"set":[...],"k":K} — nearest set members
//	POST /query                   composite constraint AST (near/and/or/not/in + ranking)
//	GET  /stats                   index stats + server counters + cache counters
//	GET  /metrics                 Prometheus text format: per-endpoint latency
//	                              histograms, cache hit rates, index/hub gauges,
//	                              shed counters (never rate limited)
//	GET  /debug/traces            recent sampled trace span trees; ?id=<traceid>
//	                              fetches one trace (never rate limited)
//	POST /update                  {"edges":[[a,b],...]} (dynamic indexes only)
//	POST /reload                  {"path":"new.pllbox"} — atomic hot-swap; empty body re-reads -index
//
// Request bounds: -maxbatch caps every client-controlled fan-out
// (/batch pairs, /knn k, /nearest set size and k, /range results,
// /query clauses and k); -maxbody caps POST bodies. Admission control:
// -rate/-burst token-bucket-limit each client (X-Client-Id header or
// remote IP), -maxinflight caps concurrently executing requests —
// excess load is shed with 429 + Retry-After instead of queueing.
// -logevery N samples one structured request log line per N requests.
// Tracing: -trace-sample P head-samples a fraction of requests into the
// /debug/traces ring (errors and -slow-query overruns are always
// traced); incoming W3C traceparent headers are honored and every
// response carries X-Trace-Id. -pprof ADDR starts a separate admin
// listener with /debug/pprof/*, /metrics and /debug/traces, kept off
// the public serving port.
//
// SIGHUP re-reads the -index file in place, like POST /reload with an
// empty body: operators can rebuild an index offline and swap it under
// live traffic without dropping a request. SIGINT/SIGTERM drain
// in-flight requests before exiting; a memory-mapped index is unmapped
// only after the last in-flight reader has finished (a drain that
// outlives the grace deliberately leaks the mapping to the exiting
// process rather than unmapping under a reader).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pll/internal/server"
	"pll/pll"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pllserved:", err)
		os.Exit(1)
	}
}

func run() error {
	indexPath := flag.String("index", "", "container index file (.pllbox) to serve")
	graphPath := flag.String("graph", "", "edge-list file to build a fresh index from (alternative to -index)")
	dynamic := flag.Bool("dynamic", false, "with -graph: build a dynamic index that accepts POST /update")
	addr := flag.String("addr", ":8355", "listen address")
	cacheSize := flag.Int("cache", 0, "distance-cache capacity in entries (0 disables)")
	maxBatch := flag.Int("maxbatch", 0, "max request fan-out: /batch pairs, /knn k, /nearest set size and k, /range results, /query clauses and k (0 means the default, 4096)")
	maxBody := flag.Int64("maxbody", 0, "max POST body bytes (0 means the default, 1 MiB)")
	rate := flag.Float64("rate", 0, "per-client request rate limit in req/s, keyed by X-Client-Id or remote IP (0 disables)")
	burst := flag.Int("burst", 0, "rate-limit burst: requests a client may spend at once (0 means 2x -rate, min 1)")
	maxInflight := flag.Int("maxinflight", 0, "global concurrent-request cap; excess requests are shed with 429 + Retry-After (0 disables)")
	logEvery := flag.Int("logevery", 0, "structured request logging: log every Nth request (0 disables)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests to trace head-sampled in [0,1]; errors and slow queries are always traced")
	traceRing := flag.Int("trace-ring", 0, "recent-trace ring capacity served by /debug/traces (0 means the default, 256)")
	slowQuery := flag.Duration("slow-query", 0, "latency threshold above which a request is traced and logged with its per-stage profile (0 disables)")
	pprofAddr := flag.String("pprof", "", "admin listener address serving /debug/pprof/* and /metrics (empty disables)")
	workers := flag.Int("workers", 0, "construction workers for -graph builds (0 = all cores; the index is identical regardless)")
	flag.Parse()

	var o pll.Oracle
	var err error
	switch {
	case *indexPath != "" && *graphPath != "":
		return errors.New("-index and -graph are mutually exclusive")
	case *indexPath != "":
		if *dynamic {
			return errors.New("-dynamic needs -graph: serialized dynamic indexes load as frozen snapshots")
		}
		// Memory-mapped, zero-copy: startup cost is independent of the
		// index size and restarts are O(1).
		start := time.Now()
		fi, err := pll.Open(*indexPath)
		if err != nil {
			return err
		}
		o = fi
		log.Printf("mapped %s in %v: %s variant, %d vertices, %d bytes zero-copy",
			*indexPath, time.Since(start).Round(time.Microsecond), fi.Variant(), fi.NumVertices(), fi.MappedBytes())
	case *graphPath != "":
		g, err := pll.LoadGraphFile(*graphPath)
		if err != nil {
			return err
		}
		start := time.Now()
		if *dynamic {
			o, err = pll.BuildDynamic(g, pll.WithWorkers(*workers))
		} else {
			o, err = pll.Build(g, pll.WithBitParallel(16), pll.WithWorkers(*workers))
		}
		if err != nil {
			return err
		}
		log.Printf("built %s index over %s in %v (%d workers): %d vertices",
			o.Stats().Variant, *graphPath, time.Since(start).Round(time.Millisecond),
			pll.EffectiveWorkers(*workers), o.NumVertices())
	default:
		return errors.New("one of -index or -graph is required")
	}

	srv := server.New(pll.NewConcurrentOracle(o), server.Config{
		IndexPath:   *indexPath,
		CacheSize:   *cacheSize,
		MaxBatch:    *maxBatch,
		MaxBody:     *maxBody,
		RatePerSec:  *rate,
		RateBurst:   *burst,
		MaxInflight: *maxInflight,
		LogEvery:    *logEvery,

		TraceSampleRate: *traceSample,
		TraceRingSize:   *traceRing,
		SlowQuery:       *slowQuery,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *pprofAddr != "" {
		adminMux := http.NewServeMux()
		adminMux.HandleFunc("/debug/pprof/", pprof.Index)
		adminMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		adminMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		adminMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		adminMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		adminMux.Handle("/metrics", srv.MetricsHandler())
		adminMux.Handle("/debug/traces", srv.DebugTracesHandler())
		adminSrv := &http.Server{Addr: *pprofAddr, Handler: adminMux}
		go func() {
			log.Printf("admin listener (pprof, metrics) on %s", *pprofAddr)
			if aerr := adminSrv.ListenAndServe(); aerr != http.ErrServerClosed {
				log.Printf("admin listener: %v", aerr)
			}
		}()
		defer adminSrv.Close()
	}

	// SIGHUP hot-reloads the index file without dropping traffic;
	// SIGINT/SIGTERM shut down gracefully.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *indexPath == "" {
				log.Printf("SIGHUP ignored: serving a built-in-memory index, use POST /reload with a path")
				continue
			}
			st, err := srv.Reload(*indexPath)
			if err != nil {
				log.Printf("SIGHUP reload failed, keeping the current index: %v", err)
				continue
			}
			log.Printf("SIGHUP reloaded %s: %s variant, %d vertices (generation %d)",
				*indexPath, st.Variant, st.NumVertices, srv.Oracle().Generation())
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- httpSrv.Shutdown(ctx)
	}()

	log.Printf("serving on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		return err
	}
	err = <-done
	if err != nil {
		// Shutdown timed out with handlers still running: hard-close the
		// remaining connections so their handlers unblock on the next
		// write, then drain below before touching the mapping.
		log.Printf("graceful shutdown timed out (%v); closing remaining connections", err)
		httpSrv.Close() //nolint:errcheck // the listeners are already down
	}
	// Wait for the last in-flight request to finish before releasing
	// the mapping (or file) behind the currently served oracle: a
	// timed-out handler may still be mid-scan over the mapped labels,
	// and unmapping under it would turn a slow drain into a segfault.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if derr := srv.Drain(drainCtx); derr != nil {
		// Leaking the mapping to the exiting process is safe; unmapping
		// under a reader is not.
		log.Printf("shutdown: %v; leaving the index mapped for the OS to reclaim", derr)
		return err
	}
	if c, ok := srv.Oracle().Snapshot().(pll.Closer); ok {
		c.Close() //nolint:errcheck
	}
	return err
}
