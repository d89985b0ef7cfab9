package server

// Stack is the serving-tier middleware shared by every binary that
// exposes a query surface: cmd/pllserved mounts it in front of the
// index handlers (via Server), and cmd/pllrouted mounts the same stack
// in front of the cluster coordinator's routing handlers. One
// request passes, outermost first, through
//
//	Wrap       – the global in-flight count Drain waits on at shutdown
//	Instrument – per-endpoint status-class counters, the latency
//	             histogram, and sampled structured request logging
//	Guarded    – admission control (per-client token bucket, global
//	             concurrency cap), shedding 429 + Retry-After
//
// so any handler set mounted behind a Stack gets the same operability
// contract: a Prometheus scrape surface (WriteMetrics), load shedding,
// and drain-aware shutdown.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"pll/internal/trace"
	"pll/internal/wire"
)

// StackConfig tunes the middleware stack. Every field zero yields a
// stack that only instruments (no admission control, no logging).
type StackConfig struct {
	// RatePerSec is the per-client steady-state request rate (keyed by
	// X-Client-Id, else remote IP); excess requests answer 429 with
	// Retry-After. 0 disables rate limiting.
	RatePerSec float64
	// RateBurst is the token-bucket depth a client can spend at once;
	// 0 means 2×RatePerSec (at least 1).
	RateBurst int
	// MaxInflight caps concurrently executing guarded requests; excess
	// requests are shed with 429 + Retry-After instead of queueing.
	// 0 disables the cap.
	MaxInflight int
	// LogEvery emits one structured request log line (slog) per
	// LogEvery requests; 0 disables request logging.
	LogEvery int
	// Logger receives the sampled request logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// Tracer drives distributed tracing and per-query profiling; nil
	// means a default tracer that never head-samples but still mints
	// trace IDs (X-Trace-Id correlation) and records errored requests.
	Tracer *trace.Tracer
}

// Stack bundles the middleware state: per-endpoint metrics, the
// admission controller, the global in-flight count, and the request-log
// sampler. The endpoint set is fixed at construction so every metric
// series exists from the first scrape.
type Stack struct {
	cfg     StackConfig
	metrics *metrics
	admit   *admission
	tracer  *trace.Tracer

	active atomic.Int64 // every executing request; Drain waits on it
	logSeq atomic.Int64 // request-log sampling sequence
}

// NewStack builds a middleware stack whose metrics cover exactly the
// named endpoints.
func NewStack(cfg StackConfig, endpoints ...string) *Stack {
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.New(trace.Config{})
	}
	return &Stack{
		cfg:     cfg,
		metrics: newMetrics(endpoints...),
		admit:   newAdmission(cfg),
		tracer:  tracer,
	}
}

// Tracer returns the stack's tracer (for /debug/traces and stats).
func (st *Stack) Tracer() *trace.Tracer { return st.tracer }

// Wrap registers every request in the global in-flight count. Mount it
// outermost (around the mux) so Drain sees requests that never match a
// route too.
func (st *Stack) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st.active.Add(1)
		defer st.active.Add(-1)
		h.ServeHTTP(w, r)
	})
}

// InflightRequests reports the number of requests currently executing.
func (st *Stack) InflightRequests() int64 { return st.active.Load() }

// Drain blocks until no request is executing or ctx expires. Call it
// after http.Server.Shutdown returns — including on Shutdown timeout,
// when handlers may still be mid-request — before releasing any
// resource those handlers read (a mapped index, a connection pool).
func (st *Stack) Drain(ctx context.Context) error {
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		if st.active.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%d requests still in flight: %w", st.active.Load(), ctx.Err())
		case <-t.C:
		}
	}
}

// statusWriter captures the response status for the metrics and log
// layers. Handlers that never call WriteHeader answered 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Instrument wraps h with the observability layer for the named
// endpoint: status-class counters, the latency histogram, and sampled
// request logging. The name must be one of the endpoints the stack was
// constructed with.
func (st *Stack) Instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := st.metrics.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		req := st.tracer.StartRequest(name, r.Header.Get("traceparent"))
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = req.TraceID.String()
		}
		// Both headers land before the handler runs, so even requests the
		// admission layer sheds carry their correlation IDs.
		w.Header().Set("X-Trace-Id", req.TraceID.String())
		w.Header().Set("X-Request-Id", rid)
		r = r.WithContext(trace.NewContext(r.Context(), req))
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		d := time.Since(start)
		em.observe(status, d)
		req.Finish(status, d)
		if st.tracer.Slow(d) {
			st.logSlow(name, r, rid, req, status, d)
		}
		st.logRequest(name, r, rid, status, d)
	}
}

// Guarded is Instrument plus admission control: requests the limiter
// or the concurrency cap rejects answer 429 with a Retry-After header
// and are recorded like any other response of the endpoint.
func (st *Stack) Guarded(name string, h http.HandlerFunc) http.HandlerFunc {
	admitted := func(w http.ResponseWriter, r *http.Request) {
		waitStart := time.Now()
		release, retryAfter, reason := st.admit.acquire(clientKey(r))
		trace.ProfileFromContext(r.Context()).AddAdmissionWait(time.Since(waitStart))
		if release == nil {
			w.Header().Set("Retry-After", retryAfter)
			wire.WriteError(w, http.StatusTooManyRequests, "server over capacity (%s); retry after %ss", reason, retryAfter)
			return
		}
		defer release()
		h(w, r)
	}
	return st.Instrument(name, admitted)
}

// logRequest emits one structured line for every LogEvery-th request;
// LogEvery <= 0 disables logging entirely.
func (st *Stack) logRequest(name string, r *http.Request, rid string, status int, d time.Duration) {
	every := int64(st.cfg.LogEvery)
	if every <= 0 || st.logSeq.Add(1)%every != 0 {
		return
	}
	logger := st.cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("endpoint", name),
		slog.String("method", r.Method),
		slog.String("path", r.URL.RequestURI()),
		slog.Int("status", status),
		slog.Duration("duration", d),
		slog.String("client", clientKey(r)),
		slog.String("request_id", rid),
		slog.Int64("inflight", st.active.Load()),
		slog.Int64("sampled_1_in", every),
	)
}

// logSlow emits one warning line for every request at or over the
// slow-query threshold, with the profile's per-stage breakdown.
func (st *Stack) logSlow(name string, r *http.Request, rid string, req *trace.Request, status int, d time.Duration) {
	logger := st.cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	attrs := []slog.Attr{
		slog.String("endpoint", name),
		slog.String("method", r.Method),
		slog.String("path", r.URL.RequestURI()),
		slog.Int("status", status),
		slog.Duration("duration", d),
		slog.Duration("threshold", st.tracer.SlowThreshold()),
		slog.String("trace_id", req.TraceID.String()),
		slog.String("request_id", rid),
	}
	attrs = append(attrs, req.Profile().LogAttrs()...)
	logger.LogAttrs(r.Context(), slog.LevelWarn, "slow query", attrs...)
}

// TraceStats is the single source for the tracing gauges surfaced by
// both /stats and /metrics, so the two always agree.
func (st *Stack) TraceStats() map[string]any {
	sampled, dropped, slow := st.tracer.Counters()
	return map[string]any{
		"sample_rate":   st.tracer.SampleRate(),
		"slow_query_ms": st.tracer.SlowThreshold().Milliseconds(),
		"ring_capacity": st.tracer.Ring().Cap(),
		"ring_stored":   st.tracer.Ring().Len(),
		"sampled":       sampled,
		"dropped":       dropped,
		"slow":          slow,
	}
}

// WriteMetrics emits the stack's Prometheus series: per-endpoint
// request counters and latency histograms, the in-flight gauge, and
// the admission counters. Callers append their own series after it
// (Server adds cache and index gauges, the cluster coordinator adds
// per-backend series).
func (st *Stack) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP pll_http_requests_total HTTP responses by endpoint and status-code class.\n")
	fmt.Fprintf(w, "# TYPE pll_http_requests_total counter\n")
	for _, name := range st.metrics.names {
		em := st.metrics.endpoints[name]
		for c := 1; c < statusClasses; c++ {
			fmt.Fprintf(w, "pll_http_requests_total{endpoint=%q,code=\"%dxx\"} %d\n", name, c, em.codes[c].Load())
		}
	}

	fmt.Fprintf(w, "# HELP pll_http_request_duration_seconds Request latency by endpoint, admission rejections included.\n")
	fmt.Fprintf(w, "# TYPE pll_http_request_duration_seconds histogram\n")
	for _, name := range st.metrics.names {
		st.metrics.endpoints[name].hist.WriteSeries(w, "pll_http_request_duration_seconds", fmt.Sprintf("endpoint=%q", name))
	}

	fmt.Fprintf(w, "# HELP pll_http_requests_in_flight Requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE pll_http_requests_in_flight gauge\n")
	fmt.Fprintf(w, "pll_http_requests_in_flight %d\n", st.active.Load())

	fmt.Fprintf(w, "# HELP pll_http_shed_total Requests rejected with 429 by the admission layer.\n")
	fmt.Fprintf(w, "# TYPE pll_http_shed_total counter\n")
	fmt.Fprintf(w, "pll_http_shed_total{reason=\"concurrency\"} %d\n", st.admit.shedConcurrency())
	fmt.Fprintf(w, "pll_http_shed_total{reason=\"rate\"} %d\n", st.admit.shedRate())

	fmt.Fprintf(w, "# HELP pll_ratelimit_clients Client token buckets currently tracked.\n")
	fmt.Fprintf(w, "# TYPE pll_ratelimit_clients gauge\n")
	fmt.Fprintf(w, "pll_ratelimit_clients %d\n", st.admit.trackedClients())

	ts := st.TraceStats()
	fmt.Fprintf(w, "# HELP pll_trace_sampled_total Traces committed with a recorded span tree.\n")
	fmt.Fprintf(w, "# TYPE pll_trace_sampled_total counter\n")
	fmt.Fprintf(w, "pll_trace_sampled_total %d\n", ts["sampled"])
	fmt.Fprintf(w, "# HELP pll_trace_dropped_total Finished requests that recorded no trace.\n")
	fmt.Fprintf(w, "# TYPE pll_trace_dropped_total counter\n")
	fmt.Fprintf(w, "pll_trace_dropped_total %d\n", ts["dropped"])
	fmt.Fprintf(w, "# HELP pll_trace_slow_total Requests at or over the slow-query threshold.\n")
	fmt.Fprintf(w, "# TYPE pll_trace_slow_total counter\n")
	fmt.Fprintf(w, "pll_trace_slow_total %d\n", ts["slow"])
	fmt.Fprintf(w, "# HELP pll_trace_ring_traces Traces currently stored in the debug ring.\n")
	fmt.Fprintf(w, "# TYPE pll_trace_ring_traces gauge\n")
	fmt.Fprintf(w, "pll_trace_ring_traces %d\n", ts["ring_stored"])
	fmt.Fprintf(w, "# HELP pll_trace_ring_capacity Debug ring capacity.\n")
	fmt.Fprintf(w, "# TYPE pll_trace_ring_capacity gauge\n")
	fmt.Fprintf(w, "pll_trace_ring_capacity %d\n", ts["ring_capacity"])
	fmt.Fprintf(w, "# HELP pll_trace_sample_rate Head-sampling probability.\n")
	fmt.Fprintf(w, "# TYPE pll_trace_sample_rate gauge\n")
	fmt.Fprintf(w, "pll_trace_sample_rate %s\n", wire.FmtFloat(ts["sample_rate"].(float64)))
}
