// Command pllrouted is the routing coordinator for a pool of pllserved
// replicas serving one index. It exposes the same HTTP/JSON surface as
// a single replica — answers are byte-identical to a replica's — while
// spreading load across the pool:
//
//	GET  /distance, /path         routed to one replica by rendezvous
//	                              hashing (failover + hedged retries)
//	POST /batch                   chunk-split across replicas and
//	                              reassembled in order
//	GET  /knn, /range             routed to one replica by rendezvous
//	POST /nearest, /query         hashing (failover, no hedge)
//	GET  /healthz                 pool health + pooled index identity
//	GET  /stats                   routing counters, per-backend state
//	GET  /metrics                 Prometheus text format: the standard
//	                              per-endpoint families plus per-backend
//	                              latency/error/hedge/breaker series
//	GET  /debug/traces            recent sampled trace span trees with one
//	                              child span per backend attempt (routed
//	                              requests, hedges, failover hops)
//
// Usage:
//
//	pllrouted -backends http://h1:8355,http://h2:8355,http://h3:8355 [-addr :8360]
//
// Replicas must serve the same index: every health sweep compares the
// identity each replica reports on /healthz (variant, vertex count,
// content checksum) and stops routing to replicas that disagree with
// the pool majority. When a replica is down, the requests it owned fail
// over to the next replica, so answers stay whole, and /healthz reports
// "degraded" with a 200 so the coordinator itself is not restarted for
// a backend's outage.
//
// -maxbatch and -maxbody must match the replicas' settings; the
// coordinator enforces them before forwarding anything, so an oversized
// request is shed locally and a /batch cannot pass the replicas' cap
// in chunks. -rate, -burst, -maxinflight and -logevery mount the same
// admission-control and logging middleware pllserved uses, and
// -trace-sample/-trace-ring/-slow-query the same tracing: every backend
// attempt becomes a child span and carries a traceparent header, so a
// replica's own trace joins the coordinator's tree. SIGINT/SIGTERM drain in-flight requests
// before the backend connection pools are torn down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pll/internal/cluster"
	"pll/internal/server"
	"pll/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pllrouted:", err)
		os.Exit(1)
	}
}

func run() error {
	backends := flag.String("backends", "", "comma-separated replica base URLs (http://host:port), required")
	addr := flag.String("addr", ":8360", "listen address")
	maxBatch := flag.Int("maxbatch", 0, "max request fan-out, must match the replicas' -maxbatch (0 means the default, 4096)")
	maxBody := flag.Int64("maxbody", 0, "max POST body bytes (0 means the default, 1 MiB)")
	rate := flag.Float64("rate", 0, "per-client request rate limit in req/s, keyed by X-Client-Id or remote IP (0 disables)")
	burst := flag.Int("burst", 0, "rate-limit burst: requests a client may spend at once (0 means 2x -rate, min 1)")
	maxInflight := flag.Int("maxinflight", 0, "global concurrent-request cap; excess requests are shed with 429 + Retry-After (0 disables)")
	logEvery := flag.Int("logevery", 0, "structured request logging: log every Nth request (0 disables)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests to trace head-sampled in [0,1]; errors and slow queries are always traced")
	traceRing := flag.Int("trace-ring", 0, "recent-trace ring capacity served by /debug/traces (0 means the default, 256)")
	slowQuery := flag.Duration("slow-query", 0, "latency threshold above which a request is traced and logged with its per-backend profile (0 disables)")
	timeout := flag.Duration("timeout", 0, "per-backend attempt timeout (0 means the default, 5s)")
	hedge := flag.Duration("hedge", 0, "fixed delay before hedging a point lookup to a second replica (0 = adaptive: the primary's observed p99)")
	healthEvery := flag.Duration("health", 0, "delay between backend health sweeps (0 means the default, 1s)")
	maxConns := flag.Int("maxconns", 0, "connection-pool cap per backend (0 means the default, 128)")
	flag.Parse()

	if *backends == "" {
		return errors.New("-backends is required")
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	coord, err := cluster.New(cluster.Config{
		Backends:           urls,
		MaxBatch:           *maxBatch,
		MaxBody:            *maxBody,
		HealthInterval:     *healthEvery,
		RequestTimeout:     *timeout,
		HedgeAfter:         *hedge,
		MaxConnsPerBackend: *maxConns,
		Stack: server.StackConfig{
			RatePerSec:  *rate,
			RateBurst:   *burst,
			MaxInflight: *maxInflight,
			LogEvery:    *logEvery,
			Tracer: trace.New(trace.Config{
				SampleRate: *traceSample,
				RingSize:   *traceRing,
				SlowQuery:  *slowQuery,
			}),
		},
	})
	if err != nil {
		return err
	}
	log.Printf("coordinating %d backends: %s (%d usable at startup)", len(urls), *backends, coord.Healthy())

	httpSrv := &http.Server{Addr: *addr, Handler: coord.Handler()}

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
		log.Printf("graceful shutdown timed out (%v); closing remaining connections", err)
		httpSrv.Close() //nolint:errcheck // the listeners are already down
	}
	// Drain in-flight requests before Close tears down the health loop
	// and the backend connection pools they are proxying through.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if derr := coord.Drain(drainCtx); derr != nil {
		log.Printf("shutdown: %v", derr)
	}
	coord.Close()
	return err
}
