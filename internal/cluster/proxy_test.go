package cluster

// Point-lookup routing against fake backends whose order is fixed by
// choosing the routing key: failover past failures, the hedge walking
// on past a failing target, what is relayed when every attempt fails,
// the 499 booking of a departed client, the two-attempt bound, and no
// goroutine left behind. Run under -race in CI: a lookup passes between
// the handler goroutine and its hedge timer's goroutine.

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// routedTo returns a /distance path and query whose rendezvous ranking
// over c's backends is exactly order.
func routedTo(tb testing.TB, c *Coordinator, order ...*fakeBackend) string {
	tb.Helper()
	for s := 0; s < 1000; s++ {
		pq := fmt.Sprintf("/distance?s=%d&t=99", s)
		ranked := c.rank(hashName(pq))
		if len(ranked) != len(order) {
			tb.Fatalf("%d usable backends, want %d", len(ranked), len(order))
		}
		match := true
		for i, b := range ranked {
			match = match && b.base == order[i].ts.URL
		}
		if match {
			return pq
		}
	}
	tb.Fatal("no routing key ranks the backends in the wanted order")
	return ""
}

// fakeCoordinator routes over the fakes with a fixed hedge delay. Its
// breakers never open, so a failing fake stays in every ranking.
func fakeCoordinator(t *testing.T, hedgeAfter time.Duration, fakes ...*fakeBackend) (*Coordinator, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(fakes))
	for i, fb := range fakes {
		urls[i] = fb.ts.URL
	}
	return startCoordinator(t, urls, func(cfg *Config) {
		cfg.HealthInterval = time.Hour // the synchronous sweep in New is enough
		cfg.HedgeAfter = hedgeAfter
		cfg.BreakerFailures = 1000
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// TestPointLookupFailover walks past a backend 5xx and past a closed
// listener (a transport error) to the backend that answers, in every
// order the three can rank.
func TestPointLookupFailover(t *testing.T) {
	failing := startFake(t, &fakeBackend{name: "failing", status: http.StatusServiceUnavailable}, "ff")
	closed := newFakeBackend(t, "closed", "ff", 0)
	good := newFakeBackend(t, "good", "ff", 0)
	c, coord := fakeCoordinator(t, time.Hour, failing, closed, good)
	closed.ts.Close() // still pooled: the next health sweep is an hour away

	for _, order := range [][]*fakeBackend{
		{failing, closed, good},
		{closed, failing, good},
		{failing, good, closed},
		{closed, good, failing},
	} {
		pq := routedTo(t, c, order...)
		st, _, body := do(t, http.MethodGet, coord.URL+pq, "")
		if st != http.StatusOK || body != `{"from":"good"}`+"\n" {
			t.Fatalf("%s ranked %s, %s, %s: status %d body %q, want good's answer",
				pq, order[0].name, order[1].name, order[2].name, st, body)
		}
	}
	if got := failing.served.Load(); got != 3 {
		t.Fatalf("failing backend tried %d times, want 3 (once per lookup ranking it before good)", got)
	}
	if got := good.served.Load(); got != 4 {
		t.Fatalf("good backend answered %d lookups, want 4", got)
	}
	if c.hedges.Load() != 0 {
		t.Fatalf("%d hedges fired with an hour's hedge delay", c.hedges.Load())
	}
}

// TestPointLookupHedgeWalksOn hedges a slow primary to a backend that
// answers 500: the hedge's walker moves on to the third backend, which
// answers while the primary is still in flight, and the primary's
// attempt is canceled.
func TestPointLookupHedgeWalksOn(t *testing.T) {
	const slowDelay = 2 * time.Second
	slow := newFakeBackend(t, "slow", "ff", slowDelay)
	failing := startFake(t, &fakeBackend{name: "failing", status: http.StatusInternalServerError}, "ff")
	good := newFakeBackend(t, "good", "ff", 0)
	c, coord := fakeCoordinator(t, 5*time.Millisecond, slow, failing, good)

	pq := routedTo(t, c, slow, failing, good)
	start := time.Now()
	st, _, body := do(t, http.MethodGet, coord.URL+pq, "")
	if st != http.StatusOK || body != `{"from":"good"}`+"\n" {
		t.Fatalf("status %d body %q, want good's answer", st, body)
	}
	if elapsed := time.Since(start); elapsed >= slowDelay {
		t.Fatalf("lookup took %v: the answer waited for the slow primary", elapsed)
	}
	if !waitFor(func() bool { return slow.canceled.Load() == 1 }) {
		t.Fatalf("slow primary saw %d cancels, want 1", slow.canceled.Load())
	}
	if slow.served.Load() != 0 || failing.served.Load() != 1 || good.served.Load() != 1 {
		t.Fatalf("served slow=%d failing=%d good=%d, want 0, 1, 1",
			slow.served.Load(), failing.served.Load(), good.served.Load())
	}
	// One hedge, to the failing backend; the walker's next attempt is a
	// plain failover, so its answer is not a hedge win.
	if c.hedges.Load() != 1 || c.hedgeWins.Load() != 0 {
		t.Fatalf("hedges=%d wins=%d, want 1 and 0", c.hedges.Load(), c.hedgeWins.Load())
	}
	for _, b := range c.backends {
		want := int64(0)
		if b.base == failing.ts.URL {
			want = 1
		}
		if got := b.hedges.Load(); got != want {
			t.Fatalf("backend %s counted %d hedges, want %d", b.host, got, want)
		}
	}
}

// TestPointLookupHedgeOutlivesPrimary fails the primary after its hedge
// has started, with no backend left to fail over to: the lookup waits
// for the hedge and relays its answer as a hedge win.
func TestPointLookupHedgeOutlivesPrimary(t *testing.T) {
	failing := startFake(t, &fakeBackend{name: "failing", delay: 10 * time.Millisecond, status: http.StatusInternalServerError}, "ff")
	slow := newFakeBackend(t, "slow", "ff", 40*time.Millisecond)
	c, coord := fakeCoordinator(t, 5*time.Millisecond, failing, slow)

	st, _, body := do(t, http.MethodGet, coord.URL+routedTo(t, c, failing, slow), "")
	if st != http.StatusOK || body != `{"from":"slow"}`+"\n" {
		t.Fatalf("status %d body %q, want the hedge's answer", st, body)
	}
	if c.hedges.Load() != 1 || c.hedgeWins.Load() != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1 and 1", c.hedges.Load(), c.hedgeWins.Load())
	}
}

// TestPointLookupAllFail pins what a lookup relays when no backend
// answers below 500: the last backend 5xx verbatim, or, when every
// backend is unreachable, a 502 naming the last backend tried.
func TestPointLookupAllFail(t *testing.T) {
	t.Run("5xx", func(t *testing.T) {
		a := startFake(t, &fakeBackend{name: "a", status: http.StatusInternalServerError}, "ff")
		b := startFake(t, &fakeBackend{name: "b", status: http.StatusBadGateway}, "ff")
		d := startFake(t, &fakeBackend{name: "d", status: http.StatusServiceUnavailable}, "ff")
		c, coord := fakeCoordinator(t, time.Hour, a, b, d)
		for _, order := range [][]*fakeBackend{{a, b, d}, {d, a, b}} {
			last := order[len(order)-1]
			st, hdr, body := do(t, http.MethodGet, coord.URL+routedTo(t, c, order...), "")
			if st != last.status || body != fmt.Sprintf(`{"error":%q}`+"\n", last.name) {
				t.Fatalf("ranked %s, %s, %s: status %d body %q, want %s's %d",
					order[0].name, order[1].name, order[2].name, st, body, last.name, last.status)
			}
			if ct := hdr.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want the backend's application/json", ct)
			}
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		a := newFakeBackend(t, "a", "ff", 0)
		b := newFakeBackend(t, "b", "ff", 0)
		d := newFakeBackend(t, "d", "ff", 0)
		c, coord := fakeCoordinator(t, time.Hour, a, b, d)
		pq := routedTo(t, c, b, d, a)
		for _, fb := range []*fakeBackend{a, b, d} {
			fb.ts.Close()
		}
		st, _, body := do(t, http.MethodGet, coord.URL+pq, "")
		host := strings.TrimPrefix(a.ts.URL, "http://")
		if st != http.StatusBadGateway || !strings.Contains(body, "backend "+host+": ") {
			t.Fatalf("status %d body %q, want 502 naming the last backend tried (%s)", st, body, host)
		}
	})
}

// TestPointLookupClientGone abandons a lookup while both its attempts
// are in flight: the coordinator books it as a 4xx (its 499), not as an
// implicit 200, and cancels both attempts.
func TestPointLookupClientGone(t *testing.T) {
	a := newFakeBackend(t, "a", "ff", 2*time.Second)
	b := newFakeBackend(t, "b", "ff", 2*time.Second)
	_, coord := fakeCoordinator(t, 5*time.Millisecond, a, b)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, coord.URL+"/distance?s=1&t=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("lookup answered %d before the client left", resp.StatusCode)
	}

	var metrics string
	booked := waitFor(func() bool {
		_, _, metrics = do(t, http.MethodGet, coord.URL+"/metrics", "")
		return strings.Contains(metrics, `pll_http_requests_total{endpoint="distance",code="4xx"} 1`+"\n")
	})
	if !booked {
		t.Fatalf("abandoned lookup not booked as 4xx:\n%s", metrics)
	}
	for _, class := range []string{"2xx", "5xx"} {
		if line := `pll_http_requests_total{endpoint="distance",code="` + class + `"} 0`; !strings.Contains(metrics, line+"\n") {
			t.Fatalf("want %q in /metrics:\n%s", line, metrics)
		}
	}
	if !waitFor(func() bool { return a.canceled.Load()+b.canceled.Load() == 2 }) {
		t.Fatalf("backends saw %d and %d cancels, want one each", a.canceled.Load(), b.canceled.Load())
	}
}

// TestRoutedSearchClientGone abandons a search and a /batch while the
// first attempt of each is in flight: the failover walk stops there, and
// the coordinator books each as a 4xx (its 499), not as a 502 from the
// canceled attempt.
func TestRoutedSearchClientGone(t *testing.T) {
	a := startFake(t, &fakeBackend{name: "a", legDelay: 2 * time.Second}, "ff")
	b := startFake(t, &fakeBackend{name: "b", legDelay: 2 * time.Second}, "ff")
	_, coord := fakeCoordinator(t, time.Hour, a, b)

	for _, leg := range []struct{ endpoint, method, path, body string }{
		{"knn", http.MethodGet, "/knn?s=1&k=2", ""},
		{"batch", http.MethodPost, "/batch", `{"pairs":[[1,2]]}`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, leg.method, coord.URL+leg.path, strings.NewReader(leg.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("%s answered %d before the client left", leg.endpoint, resp.StatusCode)
		}
		cancel()

		var metrics string
		booked := waitFor(func() bool {
			_, _, metrics = do(t, http.MethodGet, coord.URL+"/metrics", "")
			return strings.Contains(metrics, `pll_http_requests_total{endpoint="`+leg.endpoint+`",code="4xx"} 1`+"\n")
		})
		if !booked {
			t.Fatalf("abandoned %s not booked as 4xx:\n%s", leg.endpoint, metrics)
		}
		for _, class := range []string{"2xx", "5xx"} {
			if line := `pll_http_requests_total{endpoint="` + leg.endpoint + `",code="` + class + `"} 0`; !strings.Contains(metrics, line+"\n") {
				t.Fatalf("want %q in /metrics:\n%s", line, metrics)
			}
		}
	}
}

// TestPointLookupAtMostTwoInFlight counts /distance requests in flight
// across three fakes — two slow, one failing — while lookups hedge and
// fail over: never more than two at once, and two is reached.
func TestPointLookupAtMostTwoInFlight(t *testing.T) {
	var pool inflightPeak
	a := startFake(t, &fakeBackend{name: "a", delay: 30 * time.Millisecond, pool: &pool}, "ff")
	b := startFake(t, &fakeBackend{name: "b", delay: 30 * time.Millisecond, pool: &pool}, "ff")
	f := startFake(t, &fakeBackend{name: "f", delay: 10 * time.Millisecond, status: http.StatusInternalServerError, pool: &pool}, "ff")
	c, coord := fakeCoordinator(t, 5*time.Millisecond, a, b, f)

	var peak int64
	for _, order := range [][]*fakeBackend{{a, b, f}, {a, f, b}, {f, a, b}, {b, f, a}} {
		pool.peak.Store(0)
		st, _, body := do(t, http.MethodGet, coord.URL+routedTo(t, c, order...), "")
		if st != http.StatusOK {
			t.Fatalf("ranked %s, %s, %s: status %d (%s)", order[0].name, order[1].name, order[2].name, st, body)
		}
		// A canceled loser leaves its fake after the answer is relayed;
		// let it go before the next lookup starts counting.
		if !waitFor(func() bool { return pool.cur.Load() == 0 }) {
			t.Fatalf("%d requests still in flight after the lookup", pool.cur.Load())
		}
		if p := pool.peak.Load(); p > 2 {
			t.Fatalf("ranked %s, %s, %s: %d attempts in flight at once, want at most 2",
				order[0].name, order[1].name, order[2].name, p)
		}
		peak = max(peak, pool.peak.Load())
	}
	if peak != 2 {
		t.Fatalf("peak %d attempts in flight, want 2: no lookup hedged", peak)
	}
}

// TestPointLookupGoroutinesExit runs a burst of concurrent hedged
// lookups, some failing over, then shuts the coordinator down: the
// goroutine count must return to what it was before the coordinator
// existed, so no attempt or walker outlives its lookup.
func TestPointLookupGoroutinesExit(t *testing.T) {
	a := newFakeBackend(t, "a", "ff", 20*time.Millisecond)
	b := newFakeBackend(t, "b", "ff", 20*time.Millisecond)
	f := startFake(t, &fakeBackend{name: "f", status: http.StatusInternalServerError}, "ff")
	baseline := runtime.NumGoroutine()

	c, err := New(Config{
		Backends:        []string{a.ts.URL, b.ts.URL, f.ts.URL},
		HedgeAfter:      2 * time.Millisecond,
		HealthInterval:  time.Hour,
		BreakerFailures: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(c.Handler())
	var closeOnce sync.Once
	shutdown := func() {
		closeOnce.Do(func() {
			coord.Close()
			c.Close()
			http.DefaultClient.CloseIdleConnections()
		})
	}
	defer shutdown()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", coord.URL, w, i))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status is what is checked
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("lookup s=%d t=%d: status %d", w, i, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.hedges.Load() == 0 {
		t.Fatal("no lookup hedged")
	}

	shutdown()
	if !waitFor(func() bool { return runtime.NumGoroutine() <= baseline }) {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after shutdown, %d before the coordinator:\n%s",
			runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestLatencyRingP99MatchesSort checks the one-pass p99 against the
// copy-and-sort nearest-rank formula it replaced — at every fill
// level, after wrap-around, and on rings full of ties. The one-pass
// form holds only while ceil(0.99·n) is n or n−1, i.e. n ≤ 199: with a
// larger latencyWindow the full-ring cases fail.
func TestLatencyRingP99MatchesSort(t *testing.T) {
	sorted := func(lr *latencyRing) time.Duration {
		n := lr.n
		if n == 0 {
			return 0
		}
		tmp := slices.Clone(lr.buf[:n])
		slices.Sort(tmp)
		idx := (99*n + 99) / 100 // ceil(0.99*n), 1-based
		if idx > n {
			idx = n
		}
		return tmp[idx-1]
	}
	rng := rand.New(rand.NewPCG(19, 2013))
	check := func(lr *latencyRing, what string, i int) {
		t.Helper()
		if got, want := lr.p99(), sorted(lr); got != want {
			t.Fatalf("%s, sample %d (n=%d): p99 %v, sorted reference %v", what, i, lr.n, got, want)
		}
	}
	for _, tc := range []struct {
		what   string
		sample func() time.Duration
	}{
		{"distinct", func() time.Duration { return time.Duration(rng.Int64N(int64(time.Second))) }},
		{"three values", func() time.Duration { return time.Duration(rng.Int64N(3)) * time.Millisecond }},
		{"one value", func() time.Duration { return time.Millisecond }},
		{"zeros and one spike", func() time.Duration {
			if rng.IntN(latencyWindow) == 0 {
				return time.Second
			}
			return 0
		}},
	} {
		var lr latencyRing
		check(&lr, tc.what, 0)
		// Fill every level, then wrap the ring three times over.
		for i := 1; i <= 4*latencyWindow; i++ {
			lr.add(tc.sample())
			check(&lr, tc.what, i)
		}
	}
}

// BenchmarkPointLookup times one /distance lookup over loopback HTTP:
// straight to a fake replica (direct), and through a coordinator over
// that replica and a second one, routed to the first (routed). routed −
// direct is the coordinator hop: its handler, ranking, attempt set-up
// and second HTTP exchange. Allocations count every goroutine in the
// process, the fakes' and the coordinator's included.
func BenchmarkPointLookup(b *testing.B) {
	replica := newFakeBackend(b, "replica", "ff", 0)
	other := newFakeBackend(b, "other", "ff", 0)
	c, err := New(Config{Backends: []string{replica.ts.URL, other.ts.URL}, HealthInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	coord := httptest.NewServer(c.Handler())
	defer coord.Close()
	pq := routedTo(b, c, replica, other)

	for _, bc := range []struct{ name, url string }{
		{"direct", replica.ts.URL + pq},
		{"routed", coord.URL + pq},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				resp, err := http.Get(bc.url)
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, read error %v", resp.StatusCode, err)
				}
			}
		})
	}
}
