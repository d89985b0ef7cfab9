package cluster

// Hedged-request behavior against instrumented fake backends: a slow
// primary must be overtaken by a hedge to the second-ranked backend,
// and the loser's request must be canceled — observed from inside the
// slow handler — rather than left running. Run under -race in CI to
// catch leaked goroutines touching freed state.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend is a minimal replica: a healthz identity (so the
// coordinator pools it), a /distance that can be made slow or made to
// fail, and an empty /knn that can be made slow. It counts how many
// in-flight requests were canceled under it.
type fakeBackend struct {
	ts       *httptest.Server
	name     string
	delay    time.Duration
	knnDelay time.Duration
	status   int           // non-zero: /distance answers this status
	pool     *inflightPeak // non-nil: /distance requests count in it
	canceled atomic.Int64
	served   atomic.Int64
}

// inflightPeak counts requests in flight across a set of fakes and
// keeps the highest count seen.
type inflightPeak struct{ cur, peak atomic.Int64 }

func (g *inflightPeak) enter() {
	n := g.cur.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

func (g *inflightPeak) exit() { g.cur.Add(-1) }

func newFakeBackend(tb testing.TB, name, checksum string, delay time.Duration) *fakeBackend {
	tb.Helper()
	return startFake(tb, &fakeBackend{name: name, delay: delay}, checksum)
}

// startFake serves fb, whose settings are fixed before its server
// starts.
func startFake(tb testing.TB, fb *fakeBackend, checksum string) *fakeBackend {
	tb.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","variant":"test","generation":1,"vertices":10,"checksum":%q}`+"\n", checksum)
	})
	mux.HandleFunc("GET /distance", func(w http.ResponseWriter, r *http.Request) {
		if fb.pool != nil {
			fb.pool.enter()
			defer fb.pool.exit()
		}
		if fb.delay > 0 {
			select {
			case <-r.Context().Done():
				fb.canceled.Add(1)
				return
			case <-time.After(fb.delay):
			}
		}
		fb.served.Add(1)
		if fb.status != 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(fb.status)
			fmt.Fprintf(w, `{"error":%q}`+"\n", fb.name)
			return
		}
		fmt.Fprintf(w, `{"from":%q}`+"\n", fb.name)
	})
	mux.HandleFunc("GET /knn", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(fb.knnDelay):
		}
		fmt.Fprintln(w, `{"count":0,"k":1,"neighbors":[],"s":0}`)
	})
	fb.ts = httptest.NewServer(mux)
	tb.Cleanup(fb.ts.Close)
	return fb
}

// TestHedgeOvertakesSlowPrimaryAndCancelsLoser spreads point lookups
// over a pool with one pathologically slow backend. Every lookup whose
// rendezvous primary is the slow backend must be answered by the
// hedge, well under the slow backend's delay, and the abandoned slow
// attempt must observe its context cancel.
func TestHedgeOvertakesSlowPrimaryAndCancelsLoser(t *testing.T) {
	const slowDelay = 2 * time.Second
	slow := newFakeBackend(t, "slow", "cafef00d", slowDelay)
	fast := newFakeBackend(t, "fast", "cafef00d", 0)

	c, err := New(Config{
		Backends:       []string{slow.ts.URL, fast.ts.URL},
		HedgeAfter:     5 * time.Millisecond,
		HealthInterval: time.Hour, // the synchronous sweep in New is enough
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	coord := httptest.NewServer(c.Handler())
	defer coord.Close()

	if got := c.Healthy(); got != 2 {
		t.Fatalf("healthy backends = %d, want 2", got)
	}

	start := time.Now()
	for i := 0; i < 24; i++ {
		st, _, body := do(t, http.MethodGet, coord.URL+"/distance?s="+strconv.Itoa(i)+"&t=99", "")
		if st != http.StatusOK {
			t.Fatalf("lookup %d: status %d (%s)", i, st, body)
		}
		if body != `{"from":"fast"}`+"\n" {
			t.Fatalf("lookup %d answered by the slow backend: %q", i, body)
		}
	}
	// 24 lookups, each answered by the fast backend either directly
	// (fast primary) or via a ~5ms hedge: nowhere near the 2s delay.
	if elapsed := time.Since(start); elapsed > slowDelay {
		t.Fatalf("lookups took %v; hedging did not overtake the slow primary", elapsed)
	}

	if c.hedges.Load() == 0 {
		t.Fatal("no hedges fired despite a slow primary")
	}
	if c.hedgeWins.Load() == 0 {
		t.Fatal("no hedge ever won despite the primary sleeping 2s")
	}
	// Losers are canceled promptly, not abandoned until their timeout:
	// give in-flight cancels a moment to propagate, then check the slow
	// handler saw them.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && slow.canceled.Load() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if slow.canceled.Load() == 0 {
		t.Fatal("slow backend never observed a canceled request; hedging leaks its losers")
	}
	if slow.served.Load() != 0 {
		t.Fatalf("slow backend completed %d requests; they should all have been canceled", slow.served.Load())
	}
}

// TestHedgeDelayIgnoresScatterLatency: only point lookups hedge, so
// only their attempts may set the adaptive hedge delay. Three slow
// routed /knn searches after 100 lookups must leave the backend's
// latency ring (samples, fill and write position) and the hedge delay
// exactly as the lookups left them.
func TestHedgeDelayIgnoresScatterLatency(t *testing.T) {
	const scatterDelay = 40 * time.Millisecond
	fb := startFake(t, &fakeBackend{name: "only", knnDelay: scatterDelay}, "ff")
	c, coord := fakeCoordinator(t, 0, fb)
	for i := 0; i < 100; i++ {
		if st, _, body := do(t, http.MethodGet, fmt.Sprintf("%s/distance?s=%d&t=1", coord.URL, i%10), ""); st != http.StatusOK {
			t.Fatalf("lookup %d: status %d (%s)", i, st, body)
		}
	}
	type ringState struct {
		buf     [latencyWindow]time.Duration
		n, next int
	}
	ring := func() ringState {
		lr := &c.backends[0].lat
		lr.mu.Lock()
		defer lr.mu.Unlock()
		return ringState{lr.buf, lr.n, lr.next}
	}
	before, delay := ring(), c.hedgeDelay(c.backends[0])
	for i := 0; i < 3; i++ {
		if st, _, body := do(t, http.MethodGet, coord.URL+"/knn?s=0&k=1", ""); st != http.StatusOK {
			t.Fatalf("scatter %d: status %d (%s)", i, st, body)
		}
	}
	if after := ring(); after != before {
		t.Fatalf("three %v scatters changed the latency ring: n %d→%d, next %d→%d", scatterDelay, before.n, after.n, before.next, after.next)
	}
	if d := c.hedgeDelay(c.backends[0]); d != delay {
		t.Fatalf("hedge delay %v after three %v scatters, want %v as the lookups left it", d, scatterDelay, delay)
	}
}

// TestBreakerRecoveryUnderMetricsScrapes reproduces the stuck-open
// scenario: while a backend's breaker cools down, /metrics and
// /healthz are scraped continuously (both read routability). Those
// reads must not consume the half-open probe slot — once the backend
// recovers, the next real request must still get the probe through and
// close the breaker.
func TestBreakerRecoveryUnderMetricsScrapes(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok","variant":"test","generation":1,"vertices":10,"checksum":"bb"}`)
	})
	mux.HandleFunc("GET /distance", func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, `{"s":0,"t":1,"distance":1,"reachable":true}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, err := New(Config{
		Backends:        []string{ts.URL},
		HealthInterval:  time.Hour, // the synchronous sweep in New is enough
		BreakerFailures: 2,
		BreakerCooldown: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	coord := httptest.NewServer(c.Handler())
	defer coord.Close()

	for i := 0; i < 2; i++ {
		do(t, http.MethodGet, coord.URL+"/distance?s=0&t=1", "")
	}
	if !c.backends[0].breaker.open() {
		t.Fatal("breaker did not open after consecutive 5xx answers")
	}

	// Backend recovers; scrape straight through (and well past) the
	// cooldown window.
	failing.Store(false)
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		do(t, http.MethodGet, coord.URL+"/metrics", "")
		do(t, http.MethodGet, coord.URL+"/healthz", "")
		time.Sleep(2 * time.Millisecond)
	}

	st, _, body := do(t, http.MethodGet, coord.URL+"/distance?s=0&t=1", "")
	if st != http.StatusOK {
		t.Fatalf("recovered backend never probed: status %d (%s); scrapes consumed the probe slot", st, body)
	}
	if c.backends[0].breaker.open() {
		t.Fatal("breaker still open after a successful probe")
	}
}

// TestRetryAfterPropagation pins the 429 contract through the
// proxy: a backend shedding load answers through the coordinator with
// its status and Retry-After intact.
func TestRetryAfterPropagation(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok","variant":"test","generation":1,"vertices":10,"checksum":"aa"}`)
	})
	var gotClientID atomic.Value
	mux.HandleFunc("GET /distance", func(w http.ResponseWriter, r *http.Request) {
		gotClientID.Store(r.Header.Get("X-Client-Id") + "|" + r.Header.Get("X-Forwarded-For"))
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"server over capacity (client rate limit); retry after 7s"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, err := New(Config{Backends: []string{ts.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	coord := httptest.NewServer(c.Handler())
	defer coord.Close()

	req, _ := http.NewRequest(http.MethodGet, coord.URL+"/distance?s=0&t=1", nil)
	req.Header.Set("X-Client-Id", "tenant-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want \"7\"", got)
	}
	forwarded, _ := gotClientID.Load().(string)
	if forwarded == "" || forwarded[:10] != "tenant-42|" || len(forwarded) <= 10 {
		t.Fatalf("backend saw identity headers %q; want X-Client-Id=tenant-42 and a non-empty X-Forwarded-For", forwarded)
	}
}
