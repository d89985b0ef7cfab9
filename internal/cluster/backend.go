package cluster

// One backend = one pllserved replica the coordinator may route to.
// Each holds its own bounded connection pool, circuit breaker, latency
// ring (for the adaptive hedge delay) and scrape counters, so one slow
// or dying replica is observable and containable in isolation.

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pll/internal/server"
)

// identity is the backend-identity payload replicas report on /healthz.
// Backends whose identity disagrees with the pool majority are excluded
// from routing: a replica serving a different index would make an
// answer depend on which replica it was routed to.
type identity struct {
	Variant  string `json:"variant"`
	Vertices int    `json:"vertices"`
	Checksum string `json:"checksum"`
}

type backend struct {
	base     string // normalized base URL, no trailing slash
	host     string // host:port, for X-Forwarded-For-style labels
	spanName string // "backend <host>", each attempt's trace span
	seed     uint64 // rendezvous seed, from the base URL
	client   *http.Client

	healthy  atomic.Bool // last health sweep succeeded
	mismatch atomic.Bool // identity disagrees with the pool majority

	idMu sync.Mutex
	id   identity
	gen  uint64 // backend's index generation, informational only

	breaker breaker
	lat     latencyRing

	ok     atomic.Int64 // 2xx/4xx responses (the backend worked)
	errs   atomic.Int64 // transport errors and 5xx responses
	hedges atomic.Int64 // hedge attempts sent to this backend
	hist   server.Histogram
}

func newBackend(base, host string, cfg Config) *backend {
	b := &backend{
		base:     base,
		host:     host,
		spanName: "backend " + host,
		seed:     hashName(base),
		client: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     cfg.MaxConnsPerBackend,
				MaxIdleConnsPerHost: cfg.MaxConnsPerBackend,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	b.breaker.failLimit = int64(cfg.BreakerFailures)
	b.breaker.cooldown = cfg.BreakerCooldown
	// No attempt outlives RequestTimeout, so a probe slot older than
	// that was abandoned and may be reclaimed.
	b.breaker.probeTTL = cfg.RequestTimeout
	return b
}

// routable reports whether requests may be sent to this backend now.
// An open breaker overrides a green health check (the breaker reacts in
// milliseconds, the health sweep once per interval). Read-only: the
// probe slot of a cooled-down breaker is consumed at send time
// (fetch), never here — /metrics, /healthz and rendezvous ranking all
// call this without sending anything.
func (b *backend) routable() bool {
	return b.healthy.Load() && !b.mismatch.Load() && b.breaker.canRoute()
}

// observe records one completed attempt against the backend: latency
// in the histogram always, and in the hedge-delay ring only for point
// lookups, the one kind of request that hedges (a slow search or /batch
// chunk says nothing about when to hedge a lookup); success or failure
// for the breaker. 4xx counts as success — the backend answered; the
// request was bad.
func (b *backend) observe(d time.Duration, ok bool, kind attempt) {
	b.hist.Observe(d)
	if kind != legAttempt {
		b.lat.add(d)
	}
	if ok {
		b.ok.Add(1)
		b.breaker.succeed()
	} else {
		b.errs.Add(1)
		b.breaker.fail()
	}
}

func (b *backend) identitySnapshot() (identity, uint64) {
	b.idMu.Lock()
	defer b.idMu.Unlock()
	return b.id, b.gen
}

func (b *backend) setIdentity(id identity, gen uint64) {
	b.idMu.Lock()
	b.id = id
	b.gen = gen
	b.idMu.Unlock()
}

// breaker is a consecutive-failure circuit breaker. After failLimit
// consecutive failures it opens for cooldown; once the cooldown
// elapses the backend looks routable again, but acquire() admits only
// one in-flight probe at a time until a success closes the breaker.
//
// Deciding routability (canRoute) and consuming the probe slot
// (acquire) are separate on purpose: routability is read from paths
// that never send a request, and a slot consumed there would never be
// released by a completed attempt — stranding the breaker open. Only
// the probe frees its slot, by release() once its attempt ends: the
// outcome of an attempt admitted before the breaker opened says
// nothing about whether the probe is still in flight. The slot is also
// timestamped so a probe abandoned without releasing it expires after
// probeTTL instead of wedging recovery.
type breaker struct {
	failLimit   int64
	cooldown    time.Duration
	probeTTL    time.Duration // 0 = an in-flight probe never expires
	consecutive atomic.Int64
	openedUntil atomic.Int64 // unix nanos; 0 = closed
	probeStart  atomic.Int64 // unix nanos of the in-flight probe; 0 = none
}

// canRoute reports whether the breaker lets requests head toward the
// backend: closed, or open with the cooldown elapsed (a probe may go
// out). Read-only — never consumes the probe slot.
func (br *breaker) canRoute() bool {
	until := br.openedUntil.Load()
	return until == 0 || time.Now().UnixNano() >= until
}

// acquire is called once per attempt at send time. ok says whether the
// attempt may proceed; probe marks it as the recovery probe, whose
// holder must release() the slot once the attempt ends, after
// reporting any outcome with fail()/succeed().
func (br *breaker) acquire() (ok, probe bool) {
	until := br.openedUntil.Load()
	if until == 0 {
		return true, false
	}
	now := time.Now().UnixNano()
	if now < until {
		return false, false
	}
	for {
		cur := br.probeStart.Load()
		if cur != 0 && (br.probeTTL <= 0 || now-cur < int64(br.probeTTL)) {
			return false, false // another probe is in flight
		}
		if br.probeStart.CompareAndSwap(cur, now) {
			return true, true
		}
	}
}

// release frees the probe slot. It records no outcome, so a probe
// aborted by cancellation, which says the pool gave up on the request
// and nothing about the backend's health, only releases.
func (br *breaker) release() { br.probeStart.Store(0) }

func (br *breaker) fail() {
	n := br.consecutive.Add(1)
	if n >= br.failLimit {
		br.openedUntil.Store(time.Now().Add(br.cooldown).UnixNano())
	}
}

func (br *breaker) succeed() {
	br.consecutive.Store(0)
	br.openedUntil.Store(0)
}

func (br *breaker) open() bool {
	until := br.openedUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

// latencyRing keeps the last latencyWindow point-lookup attempt
// durations for the adaptive hedge delay, which reads its p99 once per
// lookup. The window must stay at most 199 samples for p99's one-pass
// scan.
const latencyWindow = 128

type latencyRing struct {
	mu   sync.Mutex
	buf  [latencyWindow]time.Duration
	n    int // filled entries, <= latencyWindow
	next int
}

func (lr *latencyRing) add(d time.Duration) {
	lr.mu.Lock()
	lr.buf[lr.next] = d
	lr.next = (lr.next + 1) % latencyWindow
	if lr.n < latencyWindow {
		lr.n++
	}
	lr.mu.Unlock()
}

// p99 returns the nearest-rank 99th percentile of the window, the
// ceil(0.99·n)-th smallest sample, or 0 when no samples exist yet. For
// n ≤ 199 that rank is n or n−1, so one scan keeping the top two
// samples finds it.
func (lr *latencyRing) p99() time.Duration {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	var top, second time.Duration
	for _, d := range lr.buf[:lr.n] {
		if d > top {
			top, second = d, top
		} else if d > second {
			second = d
		}
	}
	if (99*lr.n+99)/100 < lr.n {
		return second
	}
	return top
}
