// Package cluster is the distributed-serving tier: a routing
// coordinator fronting N pllserved replicas of one index.
//
// Every backend the coordinator routes to holds the whole index: the
// health loop pools only backends whose /healthz identity matches the
// majority, so any one of them answers any request whole. The pool
// adds throughput and fault tolerance; it does not partition the
// index.
//
// Routing and resilience:
//
//   - /distance and /path route to one backend by rendezvous hashing of
//     the query pair, with health-checked failover through the
//     remaining backends and a hedged second request after a p99-based
//     delay (the loser is canceled).
//   - /knn, /range, /nearest and /query route to one backend by
//     rendezvous hashing of the forwarded path, query and body, with
//     the same failover walk and no hedge: the answer is one replica's,
//     whole, or an error.
//   - /batch splits the pair list into contiguous chunks across healthy
//     backends and reassembles the answers in order, so the response is
//     byte-identical to a single node while the scan cost spreads over
//     the pool.
//   - Per-backend circuit breakers stop hammering a dying replica
//     between health sweeps; bounded connection pools cap each
//     backend's socket cost. A backend 429 reaches the caller with its
//     Retry-After intact.
//
// Replicas must serve the same index: the health loop compares the
// backend-identity payload (/healthz variant, vertex count, content
// checksum) across the pool and refuses to route to backends whose
// identity disagrees with the majority.
package cluster

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"pll/internal/server"
	"pll/internal/trace"
	"pll/internal/wire"
)

// Config tunes a Coordinator.
type Config struct {
	// Backends are the base URLs of the pllserved replicas
	// ("http://host:port"). At least one is required.
	Backends []string
	// MaxBatch caps every client-controlled fan-out before anything is
	// forwarded (default 4096). It must match the backends' cap: a
	// request the coordinator forwards whole must not exceed what a
	// replica accepts.
	MaxBatch int
	// MaxBody caps POST request bodies in bytes (default 1 MiB).
	MaxBody int64
	// HealthInterval is the delay between health sweeps (default 1s).
	HealthInterval time.Duration
	// RequestTimeout bounds one backend attempt (default 5s).
	RequestTimeout time.Duration
	// HedgeAfter is the fixed delay before a point lookup is hedged to
	// a second backend; 0 derives the delay from the primary backend's
	// observed p99 latency (clamped to [1ms, 250ms]).
	HedgeAfter time.Duration
	// BreakerFailures is the consecutive-failure count that opens a
	// backend's circuit breaker (default 3).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects before
	// letting a probe request through (default 1s).
	BreakerCooldown time.Duration
	// MaxConnsPerBackend bounds each backend's connection pool
	// (default 128): a burst of requests cannot grow sockets without
	// bound.
	MaxConnsPerBackend int
	// Stack configures the shared middleware (admission control,
	// request logging) in front of the coordinator's own handlers.
	Stack server.StackConfig
}

const (
	defaultMaxBatch        = 4096
	defaultMaxBody         = 1 << 20
	defaultHealthInterval  = time.Second
	defaultRequestTimeout  = 5 * time.Second
	defaultBreakerFailures = 3
	defaultBreakerCooldown = time.Second
	defaultMaxConns        = 128
)

// Coordinator serves one HTTP surface from the backend pool. Create
// with New, mount Handler, and Close when done.
type Coordinator struct {
	cfg      Config
	limits   wire.Limits // cfg.MaxBatch and cfg.MaxBody after defaults
	backends []*backend
	stack    *server.Stack
	mux      *http.ServeMux
	start    time.Time

	hedges    atomic.Int64 // hedge requests fired
	hedgeWins atomic.Int64 // hedges whose response was used

	stopHealth chan struct{}
	healthDone chan struct{}
}

// New builds a coordinator over the configured backends and runs one
// synchronous health sweep so the pool state is populated before the
// first request.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = defaultMaxBody
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = defaultHealthInterval
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = defaultRequestTimeout
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = defaultBreakerFailures
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = defaultBreakerCooldown
	}
	if cfg.MaxConnsPerBackend <= 0 {
		cfg.MaxConnsPerBackend = defaultMaxConns
	}
	c := &Coordinator{
		cfg:        cfg,
		limits:     wire.Limits{MaxBatch: cfg.MaxBatch, MaxBody: cfg.MaxBody},
		mux:        http.NewServeMux(),
		start:      time.Now(),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	for i, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimSuffix(raw, "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %d: bad base URL %q", i, raw)
		}
		c.backends = append(c.backends, newBackend(u.String(), u.Host, cfg))
	}
	c.stack = server.NewStack(cfg.Stack,
		"healthz", "metrics", "stats", "distance", "path", "batch",
		"knn", "range", "nearest", "query", "debug")

	// Liveness and scrape endpoints stay instrument-only, mirroring the
	// single-node server: probes keep answering while the query surface
	// sheds load. /debug/traces joins them so a slow-query investigation
	// is never itself shed by admission control.
	c.mux.HandleFunc("GET /healthz", c.stack.Instrument("healthz", c.handleHealthz))
	c.mux.HandleFunc("GET /metrics", c.stack.Instrument("metrics", c.handleMetrics))
	c.mux.HandleFunc("GET /debug/traces", c.stack.Instrument("debug", trace.DebugHandler(c.stack.Tracer())))
	c.mux.HandleFunc("GET /stats", c.stack.Guarded("stats", c.handleStats))
	c.mux.HandleFunc("GET /distance", c.stack.Guarded("distance", c.handlePoint))
	c.mux.HandleFunc("GET /path", c.stack.Guarded("path", c.handlePoint))
	c.mux.HandleFunc("POST /batch", c.stack.Guarded("batch", c.handleBatch))
	c.mux.HandleFunc("GET /knn", c.stack.Guarded("knn", c.handleKNN))
	c.mux.HandleFunc("GET /range", c.stack.Guarded("range", c.handleRange))
	c.mux.HandleFunc("POST /nearest", c.stack.Guarded("nearest", c.handleNearest))
	c.mux.HandleFunc("POST /query", c.stack.Guarded("query", c.handleQuery))

	c.healthSweep()
	go c.healthLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP surface wrapped in the
// middleware stack's in-flight accounting (see Drain).
func (c *Coordinator) Handler() http.Handler { return c.stack.Wrap(c.mux) }

// Drain blocks until no request is executing or ctx expires; call it
// after http.Server.Shutdown so in-flight requests finish before the
// connection pools are torn down.
func (c *Coordinator) Drain(ctx context.Context) error { return c.stack.Drain(ctx) }

// Close stops the health loop and releases the backend connection
// pools. In-flight requests should be drained first.
func (c *Coordinator) Close() {
	close(c.stopHealth)
	<-c.healthDone
	for _, b := range c.backends {
		b.client.CloseIdleConnections()
	}
}

// Healthy reports how many backends are currently routable.
func (c *Coordinator) Healthy() int {
	n := 0
	for _, b := range c.backends {
		if b.routable() {
			n++
		}
	}
	return n
}

// poolable returns the backends whose identity matches the pool: the
// count /healthz measures usable backends against. An unreachable but
// matching backend is a missing pool member; a mismatched one is not
// part of the pool at all.
func (c *Coordinator) poolable() []*backend {
	out := make([]*backend, 0, len(c.backends))
	for _, b := range c.backends {
		if !b.mismatch.Load() {
			out = append(out, b)
		}
	}
	return out
}

// usable returns the backends a request may be sent to right now:
// poolable, passing health checks, and with a closed (or probing)
// breaker.
func (c *Coordinator) usable() []*backend {
	out := make([]*backend, 0, len(c.backends))
	for _, b := range c.backends {
		if b.routable() {
			out = append(out, b)
		}
	}
	return out
}

// rank orders the usable backends for one routing key by rendezvous
// (highest-random-weight) hashing: every coordinator instance ranks
// the same key identically, and removing a backend only remaps the
// keys it owned.
func (c *Coordinator) rank(key uint64) []*backend {
	ranked := c.usable()
	slices.SortFunc(ranked, func(a, b *backend) int {
		return cmp.Compare(mix(b.seed^key), mix(a.seed^key))
	})
	return ranked
}

// mix is splitmix64's finalizer: a cheap, well-distributed permutation
// of the (backend seed XOR key) rendezvous input.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashName seeds a backend's rendezvous score from its base URL, and
// keys a request's ranking from its forwarded path, query and body.
func hashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}
