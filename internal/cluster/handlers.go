package cluster

// The coordinator's own observability surface. /healthz answers the
// pool's health (200 while at least one backend is usable — a degraded
// pool still serves) with the pooled index identity and per-backend
// status; /stats summarizes routing counters; /metrics appends the
// per-backend series to the shared middleware stack's families.

import (
	"fmt"
	"net/http"
	"time"

	"pll/internal/wire"
)

// poolIdentity is the majority identity among healthy backends (the
// index every routed answer comes from), or false when nothing is
// healthy.
func (c *Coordinator) poolIdentity() (identity, uint64, bool) {
	for _, b := range c.backends {
		if b.healthy.Load() && !b.mismatch.Load() {
			id, gen := b.identitySnapshot()
			return id, gen, true
		}
	}
	return identity{}, 0, false
}

func (c *Coordinator) backendStatus() []map[string]any {
	out := make([]map[string]any, 0, len(c.backends))
	for _, b := range c.backends {
		id, gen := b.identitySnapshot()
		out = append(out, map[string]any{
			"backend":      b.host,
			"healthy":      b.healthy.Load(),
			"mismatch":     b.mismatch.Load(),
			"breaker_open": b.breaker.open(),
			"generation":   gen,
			"checksum":     id.Checksum,
		})
	}
	return out
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	usable := len(c.usable())
	status, code := "ok", http.StatusOK
	switch {
	case usable == 0:
		status, code = "unavailable", http.StatusServiceUnavailable
	case usable < len(c.poolable()):
		status = "degraded"
	}
	resp := map[string]any{
		"status":   status,
		"backends": c.backendStatus(),
		"usable":   usable,
		"pool":     len(c.poolable()),
	}
	// The pooled identity rides along in the same shape a replica
	// reports, so anything probing /healthz for the served index
	// (deploy checks, the loadtest harness) works against either tier.
	if id, gen, ok := c.poolIdentity(); ok {
		resp["variant"] = id.Variant
		resp["vertices"] = id.Vertices
		resp["checksum"] = id.Checksum
		resp["generation"] = gen
	}
	wire.WriteJSON(w, code, resp)
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	backends := make([]map[string]any, 0, len(c.backends))
	for _, b := range c.backends {
		backends = append(backends, map[string]any{
			"backend":  b.host,
			"healthy":  b.healthy.Load(),
			"mismatch": b.mismatch.Load(),
			"ok":       b.ok.Load(),
			"errors":   b.errs.Load(),
			"hedges":   b.hedges.Load(),
			"p99_ms":   float64(b.lat.p99()) / float64(time.Millisecond),
		})
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"coordinator": map[string]any{
			"uptime_seconds": time.Since(c.start).Seconds(),
			"backends":       len(c.backends),
			"usable":         len(c.usable()),
			"hedges":         c.hedges.Load(),
			"hedge_wins":     c.hedgeWins.Load(),
		},
		"backends": backends,
		"tracing":  c.stack.TraceStats(),
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	// The per-endpoint request/latency/shed families come from the
	// shared middleware stack — the same series a single replica emits,
	// so dashboards work unchanged against either tier.
	c.stack.WriteMetrics(w)

	fmt.Fprintf(w, "# HELP pll_backend_up Whether the backend is currently routable (healthy, identity-matched, breaker closed).\n")
	fmt.Fprintf(w, "# TYPE pll_backend_up gauge\n")
	for _, b := range c.backends {
		up := 0
		if b.routable() {
			up = 1
		}
		fmt.Fprintf(w, "pll_backend_up{backend=%q} %d\n", b.host, up)
	}
	fmt.Fprintf(w, "# HELP pll_backend_mismatch Whether the backend's index identity disagrees with the pool majority.\n")
	fmt.Fprintf(w, "# TYPE pll_backend_mismatch gauge\n")
	for _, b := range c.backends {
		mm := 0
		if b.mismatch.Load() {
			mm = 1
		}
		fmt.Fprintf(w, "pll_backend_mismatch{backend=%q} %d\n", b.host, mm)
	}
	fmt.Fprintf(w, "# HELP pll_backend_breaker_open Whether the backend's circuit breaker is open.\n")
	fmt.Fprintf(w, "# TYPE pll_backend_breaker_open gauge\n")
	for _, b := range c.backends {
		open := 0
		if b.breaker.open() {
			open = 1
		}
		fmt.Fprintf(w, "pll_backend_breaker_open{backend=%q} %d\n", b.host, open)
	}
	fmt.Fprintf(w, "# HELP pll_backend_requests_total Proxied backend attempts by outcome (ok = answered below 500).\n")
	fmt.Fprintf(w, "# TYPE pll_backend_requests_total counter\n")
	for _, b := range c.backends {
		fmt.Fprintf(w, "pll_backend_requests_total{backend=%q,outcome=\"ok\"} %d\n", b.host, b.ok.Load())
		fmt.Fprintf(w, "pll_backend_requests_total{backend=%q,outcome=\"error\"} %d\n", b.host, b.errs.Load())
	}
	fmt.Fprintf(w, "# HELP pll_backend_request_duration_seconds Backend attempt latency as observed by the coordinator.\n")
	fmt.Fprintf(w, "# TYPE pll_backend_request_duration_seconds histogram\n")
	for _, b := range c.backends {
		b.hist.WriteSeries(w, "pll_backend_request_duration_seconds", fmt.Sprintf("backend=%q", b.host))
	}
	fmt.Fprintf(w, "# HELP pll_backend_hedges_total Hedge attempts sent to the backend.\n")
	fmt.Fprintf(w, "# TYPE pll_backend_hedges_total counter\n")
	for _, b := range c.backends {
		fmt.Fprintf(w, "pll_backend_hedges_total{backend=%q} %d\n", b.host, b.hedges.Load())
	}

	fmt.Fprintf(w, "# HELP pll_hedges_total Point lookups that fired a hedge request.\n")
	fmt.Fprintf(w, "# TYPE pll_hedges_total counter\n")
	fmt.Fprintf(w, "pll_hedges_total %d\n", c.hedges.Load())
	fmt.Fprintf(w, "# HELP pll_hedge_wins_total Hedged lookups answered by the hedge instead of the primary.\n")
	fmt.Fprintf(w, "# TYPE pll_hedge_wins_total counter\n")
	fmt.Fprintf(w, "pll_hedge_wins_total %d\n", c.hedgeWins.Load())
	fmt.Fprintf(w, "# HELP pll_backends Configured backends.\n")
	fmt.Fprintf(w, "# TYPE pll_backends gauge\n")
	fmt.Fprintf(w, "pll_backends %d\n", len(c.backends))
	fmt.Fprintf(w, "# HELP pll_backends_usable Backends currently routable.\n")
	fmt.Fprintf(w, "# TYPE pll_backends_usable gauge\n")
	fmt.Fprintf(w, "pll_backends_usable %d\n", len(c.usable()))
	fmt.Fprintf(w, "# HELP pll_uptime_seconds Seconds since the coordinator was constructed.\n")
	fmt.Fprintf(w, "# TYPE pll_uptime_seconds gauge\n")
	fmt.Fprintf(w, "pll_uptime_seconds %s\n", wire.FmtFloat(time.Since(c.start).Seconds()))
}
