package cluster

// Point-lookup proxying: /distance and /path are answered by exactly
// one replica, chosen by rendezvous hashing over the request's query
// string so the same pair keeps hitting the same replica's distance
// cache. Resilience comes from two mechanisms with different clocks:
// failover walks down the rendezvous ranking when an attempt fails
// (transport error or backend 5xx), and a hedge fires a duplicate
// attempt at the next-ranked backend when the primary is slower than
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

// fetch runs one attempt against b: build the backend request (same
// method, path and query; forwarded identity headers), read the whole
// response, and record the attempt in the backend's latency ring and
// breaker. The breaker's probe slot is consumed here, at send time —
// the routability checks that picked b are read-only. Attempts aborted
// by cancellation (a lost hedge race, a gone client) are not charged
// to the breaker — cancellation says the pool was slow, not that the
// backend failed — but a held probe slot is released so the breaker
// can still admit the next probe.
func (c *Coordinator) fetch(ctx context.Context, b *backend, in *http.Request, method, pathQuery string, body []byte, hedged bool) *proxyResult {
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
	// One child span per backend attempt — a scatter leg, a hedge, a
	// failover hop — under the coordinator's request span, with the
	// attempt's span ID forwarded as the replica's traceparent parent so
	// the replica's own trace joins the same tree.
	treq := trace.FromContext(in.Context())
	sp := treq.StartSpan("backend " + b.host)
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
	settleAbort := func() {
		if probe {
			b.breaker.release()
		}
	}
	start := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			b.observe(time.Since(start), false)
		} else {
			settleAbort()
		}
		return finishSpan(&proxyResult{b: b, hedged: hedged, err: err})
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		if ctx.Err() == nil {
			b.observe(time.Since(start), false)
		} else {
			settleAbort()
		}
		return finishSpan(&proxyResult{b: b, hedged: hedged, err: err})
	}
	b.observe(time.Since(start), resp.StatusCode < http.StatusInternalServerError)
	return finishSpan(&proxyResult{b: b, hedged: hedged, status: resp.StatusCode, header: resp.Header, body: data})
}

// hedgeDelay picks how long to give the primary before duplicating the
// request: the configured fixed delay, else the primary's own observed
// p99 clamped to [1ms, 250ms] (5ms before any samples exist). Hedging
// at the p99 bounds the duplicate-request overhead to roughly 1% of
// traffic while cutting the latency tail to the second backend's
// median.
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

// pointHandler serves one point-lookup endpoint (/distance, /path) by
// routing to the rendezvous-ranked backends with hedging and failover.
// Point lookups fail fast: with no usable backend the caller gets an
// immediate 503 rather than a degraded answer — a distance is either
// exact or an error.
func (c *Coordinator) pointHandler(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		pathQuery := r.URL.Path
		if r.URL.RawQuery != "" {
			pathQuery += "?" + r.URL.RawQuery
		}
		ranked := c.rank(hashName(pathQuery))
		if len(ranked) == 0 {
			wire.WriteError(w, http.StatusServiceUnavailable, "no usable backends (%d configured)", len(c.backends))
			return
		}

		ctx := r.Context()
		// Buffered to the maximum number of attempts, so a loser's
		// goroutine can always deliver its result and exit after the
		// handler returned — no reaper, no leak.
		results := make(chan *proxyResult, len(ranked))
		cancels := make([]func(), 0, len(ranked))
		defer func() {
			for _, cancel := range cancels {
				cancel()
			}
		}()
		launched := 0
		launch := func(hedged bool) {
			b := ranked[launched]
			launched++
			// WithCancelCause under the timeout: when the handler returns
			// because another attempt won, the losers are canceled with
			// errAttemptSuperseded and their spans record that cause.
			actx, acancel := context.WithCancelCause(ctx)
			tctx, tcancel := context.WithTimeout(actx, c.cfg.RequestTimeout)
			cancels = append(cancels, func() {
				acancel(errAttemptSuperseded)
				tcancel()
			})
			if hedged {
				c.hedges.Add(1)
				b.hedges.Add(1)
			}
			go func() {
				results <- c.fetch(tctx, b, r, http.MethodGet, pathQuery, nil, hedged)
			}()
		}
		launch(false)

		hedgeTimer := time.NewTimer(c.hedgeDelay(ranked[0]))
		defer hedgeTimer.Stop()

		var lastFail *proxyResult
		received := 0
		for {
			select {
			case pr := <-results:
				received++
				if pr.answered() {
					if pr.hedged {
						c.hedgeWins.Add(1)
					}
					relay(w, pr)
					return
				}
				lastFail = pr
				if launched < len(ranked) {
					launch(false)
				} else if received == launched {
					// Every attempt failed: relay the last backend 5xx if
					// one answered, else report the transport error.
					if lastFail.err == nil {
						relay(w, lastFail)
					} else {
						wire.WriteError(w, http.StatusBadGateway, "backend %s: %v", lastFail.b.host, lastFail.err)
					}
					return
				}
			case <-hedgeTimer.C:
				if launched < len(ranked) {
					launch(true)
				}
			case <-ctx.Done():
				// The client went away before any attempt answered: stamp
				// the nginx-style client-closed-request status so the
				// Instrument layer doesn't book an abandoned lookup as an
				// implicit 200.
				w.WriteHeader(statusClientClosedRequest)
				return
			}
		}
	}
}
