package cluster

// Point-lookup proxying: /distance and /path are answered by exactly
// one replica, chosen by rendezvous hashing over the request's query
// string so the same pair keeps hitting the same replica's distance
// cache. Resilience comes from two mechanisms with different clocks:
// failover walks down the rendezvous ranking when an attempt fails
// (transport error or backend 5xx), and a hedge starts a second walk
// at the next backend not yet tried when the primary is slower than
// its own recent p99 — whichever attempt answers first wins and the
// loser's request context is canceled.
//
// Backend responses relay verbatim — status, Content-Type, Retry-After
// and body bytes — so a routed answer is byte-identical to asking the
// replica directly, and a replica's 429 reaches the caller with its
// Retry-After intact.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"pll/internal/trace"
	"pll/internal/wire"
)

// statusClientClosedRequest is nginx's non-standard status for a
// client that disconnected before the response was written.
const statusClientClosedRequest = 499

func clientIP(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// forwardHeaders carries the caller's identity to the backend: the
// X-Client-Id (so per-client rate limits key on the real client, not
// on the coordinator) and the proxy chain in X-Forwarded-For.
func forwardHeaders(out, in *http.Request) {
	if id := in.Header.Get("X-Client-Id"); id != "" {
		out.Header.Set("X-Client-Id", id)
	}
	ip := clientIP(in)
	if prior := in.Header.Get("X-Forwarded-For"); prior != "" {
		ip = prior + ", " + ip
	}
	out.Header.Set("X-Forwarded-For", ip)
}

// proxyResult is one completed backend attempt. err covers transport
// failures; an HTTP response of any status arrives with err == nil.
type proxyResult struct {
	b      *backend
	hedged bool
	status int
	header http.Header
	body   []byte
	err    error
}

// answered reports whether the backend produced a usable answer: any
// response below 500 (4xx is the client's problem, relayed verbatim).
func (pr *proxyResult) answered() bool {
	return pr.err == nil && pr.status < http.StatusInternalServerError
}

// errBreakerOpen marks an attempt the breaker rejected at send time
// (the probe slot was already taken); the callers treat it like any
// other failed attempt and move on to the next backend.
var errBreakerOpen = errors.New("circuit breaker open")

// errAttemptSuperseded is the cancel cause handed to in-flight attempts
// once another backend's answer has been relayed, so a hedge loser's
// trace span says it lost the race rather than generically "canceled".
var errAttemptSuperseded = errors.New("superseded: another backend answered first")

// attempt says what a backend request is for. Only point lookups
// hedge, so only their attempts set the hedge delay.
type attempt uint8

const (
	legAttempt   attempt = iota // a search or a /batch chunk
	pointAttempt                // a point lookup's primary or failover attempt
	hedgeAttempt                // a point lookup's hedge
)

// fetch runs one attempt of the given kind against b: build the backend
// request (same method, path and query; forwarded identity headers),
// read the whole response, and record the attempt with the backend
// (observe). The breaker's probe slot is consumed here, at send time —
// the routability checks that picked b are read-only — and a probe
// releases it when the attempt ends. Attempts aborted by cancellation
// (a lost hedge race, a gone client) are not charged to the breaker —
// cancellation says the pool was slow, not that the backend failed.
func (c *Coordinator) fetch(ctx context.Context, b *backend, in *http.Request, method, pathQuery string, body []byte, kind attempt) *proxyResult {
	hedged := kind == hedgeAttempt
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+pathQuery, rd)
	if err != nil {
		return &proxyResult{b: b, hedged: hedged, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	forwardHeaders(req, in)
	// One child span per backend attempt — a search, a /batch chunk, a
	// hedge, a failover hop — under the coordinator's request span, with
	// the attempt's span ID forwarded as the replica's traceparent parent
	// so the replica's own trace joins the same tree.
	treq := trace.FromContext(in.Context())
	sp := treq.StartSpan(b.spanName)
	sp.SetAttr("path", pathQuery)
	if hedged {
		sp.SetAttr("hedged", "true")
	}
	if tp := treq.Traceparent(sp); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	finishSpan := func(pr *proxyResult) *proxyResult {
		if pr.err != nil {
			sp.SetAttr("error", pr.err.Error())
			if ctx.Err() != nil {
				if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, ctx.Err()) {
					sp.SetAttr("cancel", cause.Error())
				}
			}
		} else {
			sp.SetInt("status", int64(pr.status))
		}
		sp.End()
		return pr
	}
	ok, probe := b.breaker.acquire()
	if !ok {
		return finishSpan(&proxyResult{b: b, hedged: hedged, err: errBreakerOpen})
	}
	if probe {
		defer b.breaker.release() // after observe has recorded any outcome
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			b.observe(time.Since(start), false, kind)
		}
		return finishSpan(&proxyResult{b: b, hedged: hedged, err: err})
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		if ctx.Err() == nil {
			b.observe(time.Since(start), false, kind)
		}
		return finishSpan(&proxyResult{b: b, hedged: hedged, err: err})
	}
	b.observe(time.Since(start), resp.StatusCode < http.StatusInternalServerError, kind)
	return finishSpan(&proxyResult{b: b, hedged: hedged, status: resp.StatusCode, header: resp.Header, body: data})
}

// hedgeDelay picks how long to give the primary before duplicating the
// request: the configured fixed delay, else the primary's own observed
// point-lookup p99 clamped to [1ms, 250ms] (5ms before any samples
// exist). Hedging at the p99 bounds the duplicate-request overhead to
// roughly 1% of traffic while cutting the latency tail to the second
// backend's median.
func (c *Coordinator) hedgeDelay(primary *backend) time.Duration {
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	d := primary.lat.p99()
	if d == 0 {
		return 5 * time.Millisecond
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// relay writes a backend response through verbatim.
func relay(w http.ResponseWriter, pr *proxyResult) {
	if ct := pr.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := pr.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(pr.status)
	w.Write(pr.body) //nolint:errcheck // nothing to do for a dead client
}

// lookup is one routed point lookup. The handler goroutine walks the
// rendezvous ranking itself, one attempt at a time; if the primary is
// slower than the hedge delay, a timer starts one more walker at the
// next unclaimed backend. Both walkers claim from the same ranking, so
// no backend is tried twice and at most two attempts are in flight,
// and the first answer below 500 ends the lookup for both: its walker
// cancels every other attempt through the lookup's context.
type lookup struct {
	c         *Coordinator
	in        *http.Request
	pathQuery string
	ranked    []*backend
	ctx       context.Context // every attempt's parent
	cancel    context.CancelCauseFunc
	hedge     *time.Timer

	mu       sync.Mutex
	next     int           // ranked[next] is the next unclaimed backend
	closed   bool          // answered, or the handler is done: claim nothing more
	hedgeEnd chan struct{} // made when a hedge starts, closed when its walker stops
	answer   *proxyResult  // the first response below 500
	lastFail *proxyResult  // the most recent failed attempt
}

// claimLocked hands out the next unclaimed backend in rendezvous
// order, or nil once the lookup is closed, the client has gone or the
// ranking is exhausted. l.mu must be held.
func (l *lookup) claimLocked() *backend {
	if l.closed || l.next == len(l.ranked) || l.ctx.Err() != nil {
		return nil
	}
	l.next++
	return l.ranked[l.next-1]
}

// walk tries b, then each backend it claims after a failed attempt,
// until an attempt answers below 500 or nothing is left to claim. Only
// the first attempt of a hedge walker (kind hedgeAttempt) is hedged.
func (l *lookup) walk(b *backend, kind attempt) {
	for b != nil {
		ctx, cancel := context.WithTimeout(l.ctx, l.c.cfg.RequestTimeout)
		pr := l.c.fetch(ctx, b, l.in, http.MethodGet, l.pathQuery, nil, kind)
		cancel()
		kind = pointAttempt
		won := false
		l.mu.Lock()
		switch {
		case l.closed:
			b = nil
		case pr.answered():
			l.answer, l.closed, won = pr, true, true
			b = nil
		default:
			l.lastFail = pr
			b = l.claimLocked()
		}
		l.mu.Unlock()
		if won {
			l.cancel(errAttemptSuperseded)
		}
	}
}

// startHedge runs on the hedge timer's goroutine: the primary has been
// slower than the hedge delay, so a second walker starts at the next
// unclaimed backend.
func (l *lookup) startHedge() {
	l.mu.Lock()
	b := l.claimLocked()
	if b != nil {
		l.hedgeEnd = make(chan struct{})
	}
	l.mu.Unlock()
	if b == nil {
		return
	}
	defer close(l.hedgeEnd)
	l.c.hedges.Add(1)
	b.hedges.Add(1)
	l.walk(b, hedgeAttempt)
}

// end closes the lookup once the handler's own walk has stopped, so no
// hedge can start after it, and cancels whatever is still in flight.
// Without an answer, a hedge walker is waited for first: its attempt
// may yet answer, and its context ends with the client's.
func (l *lookup) end() (answer, lastFail *proxyResult) {
	l.hedge.Stop()
	l.mu.Lock()
	if hedgeEnd := l.hedgeEnd; l.answer == nil && hedgeEnd != nil {
		l.mu.Unlock()
		<-hedgeEnd
		l.mu.Lock()
	}
	l.closed = true
	answer, lastFail = l.answer, l.lastFail
	l.mu.Unlock()
	l.cancel(errAttemptSuperseded)
	return answer, lastFail
}

// handlePoint serves a point-lookup endpoint (/distance, /path) by
// routing to the rendezvous-ranked backends with hedging and failover.
// Point lookups fail fast: with no usable backend the caller gets an
// immediate 503 rather than a degraded answer — a distance is either
// exact or an error.
func (c *Coordinator) handlePoint(w http.ResponseWriter, r *http.Request) {
	pathQuery := r.URL.Path
	if r.URL.RawQuery != "" {
		pathQuery += "?" + r.URL.RawQuery
	}
	ranked := c.rank(hashName(pathQuery))
	if len(ranked) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "no usable backends (%d configured)", len(c.backends))
		return
	}

	l := &lookup{c: c, in: r, pathQuery: pathQuery, ranked: ranked, next: 1}
	l.ctx, l.cancel = context.WithCancelCause(r.Context())
	l.hedge = time.AfterFunc(c.hedgeDelay(ranked[0]), l.startHedge)
	l.walk(ranked[0], pointAttempt)
	answer, lastFail := l.end()
	switch {
	case answer != nil:
		if answer.hedged {
			c.hedgeWins.Add(1)
		}
		relay(w, answer)
	case r.Context().Err() != nil:
		// The client went away before any attempt answered: stamp the
		// nginx-style client-closed-request status so the Instrument
		// layer doesn't book an abandoned lookup as an implicit 200.
		w.WriteHeader(statusClientClosedRequest)
	case lastFail.err == nil:
		// Every attempt failed: relay the last backend 5xx if one
		// answered, else report the transport error.
		relay(w, lastFail)
	default:
		wire.WriteError(w, http.StatusBadGateway, "backend %s: %v", lastFail.b.host, lastFail.err)
	}
}
