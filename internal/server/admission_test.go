package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pll/pll"
)

// send issues a request with an optional client ID and returns the
// response (body drained and closed).
func send(method, url, clientID string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if clientID != "" {
		req.Header.Set("X-Client-Id", clientID)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp, nil
}

// do is send for the test goroutine: a transport error fails the test.
func do(t *testing.T, method, url, clientID string, body io.Reader) *http.Response {
	t.Helper()
	resp, err := send(method, url, clientID, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitAdmitted polls until want requests hold admission slots. The
// in-flight count rises before a request takes its slot, so waiting on
// it would let a probe race the slot holder for the slot.
func waitAdmitted(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.stack.admit.sem) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("admitted requests = %d, want %d", len(s.stack.admit.sem), want)
}

// TestRateLimitPerClient verifies the token bucket: with burst 1 and a
// refill far slower than the test, a client's second request sheds with
// 429 + a positive integer Retry-After, while a different client ID is
// untouched (per-client isolation) and /healthz and /metrics keep
// answering for the limited client.
func TestRateLimitPerClient(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, ix, Config{RatePerSec: 0.01, RateBurst: 1})

	if resp := do(t, http.MethodGet, ts.URL+"/distance?s=0&t=3", "alice", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice #1: status %d, want 200", resp.StatusCode)
	}
	resp := do(t, http.MethodGet, ts.URL+"/distance?s=0&t=3", "alice", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice #2: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	if resp := do(t, http.MethodGet, ts.URL+"/distance?s=0&t=3", "bob", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob: status %d, want 200 (buckets must be per client)", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp := do(t, http.MethodGet, ts.URL+path, "alice", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s for a rate-limited client: status %d, want 200 (probes and scrapes are exempt)", path, resp.StatusCode)
		}
	}
	if got := s.stack.admit.shedRate(); got != 1 {
		t.Fatalf("rate sheds = %d, want 1", got)
	}
	if got := s.stack.admit.trackedClients(); got != 2 {
		t.Fatalf("tracked clients = %d, want 2", got)
	}
}

// TestTokenBucketRefill drives the bucket with a fake clock: burst 2 at
// 2 req/s means two immediate admits, a shed telling the client to wait
// 1s, and one more admit after half a second restores one token.
func TestTokenBucketRefill(t *testing.T) {
	a := newAdmission(StackConfig{RatePerSec: 2, RateBurst: 2})
	now := time.Unix(1000, 0)
	a.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if _, ok := a.takeToken("c"); !ok {
			t.Fatalf("take #%d: shed within burst", i+1)
		}
	}
	wait, ok := a.takeToken("c")
	if ok {
		t.Fatal("take #3: admitted past the burst without refill")
	}
	if wait != 1 {
		t.Fatalf("retry-after = %d, want 1 (ceil of 0.5s to the next token)", wait)
	}
	now = now.Add(500 * time.Millisecond)
	if _, ok := a.takeToken("c"); !ok {
		t.Fatal("take after 500ms at 2 req/s: shed despite a refilled token")
	}
	if _, ok := a.takeToken("c"); ok {
		t.Fatal("bucket refilled more than rate*elapsed")
	}
}

// TestConcurrencyShed holds the server's only concurrency slot open
// with a stalled upload and verifies the next request sheds immediately
// with 429 + Retry-After, then succeeds once the slot frees.
func TestConcurrencyShed(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, ix, Config{MaxInflight: 1})

	pr, pw := io.Pipe()
	// Cleanups run last in, first out: the stalled upload ends before
	// the server closes, even when an assertion below fails.
	t.Cleanup(func() { pw.Close() })
	type outcome struct {
		status int
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := send(http.MethodPost, ts.URL+"/batch", "", pr)
		if err != nil {
			done <- outcome{err: err}
			return
		}
		done <- outcome{status: resp.StatusCode}
	}()
	if _, err := io.WriteString(pw, `{"source":0,"targets":[1`); err != nil {
		t.Fatal(err)
	}
	waitAdmitted(t, s, 1)

	resp := do(t, http.MethodGet, ts.URL+"/distance?s=0&t=3", "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("with the slot held: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("concurrency 429 Retry-After = %q, want \"1\"", ra)
	}
	if got := s.stack.admit.shedConcurrency(); got != 1 {
		t.Fatalf("concurrency sheds = %d, want 1", got)
	}

	if _, err := io.WriteString(pw, `]}`); err != nil {
		t.Fatal(err)
	}
	pw.Close() //nolint:errcheck
	if res := <-done; res.err != nil || res.status != http.StatusOK {
		t.Fatalf("slot-holding /batch: status %d (err %v), want 200", res.status, res.err)
	}
	if resp := do(t, http.MethodGet, ts.URL+"/distance?s=0&t=3", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the slot freed: status %d, want 200", resp.StatusCode)
	}
}

// TestShedUnderConcurrentLoad hammers a capped server from many
// goroutines and checks the accounting invariant the saturation
// loadtest relies on: every response is a 200 or a 429, the 429 count
// matches the shed counter, and nothing deadlocks under -race.
func TestShedUnderConcurrentLoad(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 32))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, ix, Config{MaxInflight: 2})

	const workers, perWorker = 8, 25
	var ok200, shed429, other atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Get(ts.URL + "/distance?s=0&t=9")
				if err != nil {
					other.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						other.Add(1)
						continue
					}
					shed429.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor header-complete 429", other.Load())
	}
	if total := ok200.Load() + shed429.Load(); total != workers*perWorker {
		t.Fatalf("accounted responses = %d, want %d", total, workers*perWorker)
	}
	if got := s.stack.admit.shedConcurrency(); got != shed429.Load() {
		t.Fatalf("shed counter = %d, observed 429s = %d", got, shed429.Load())
	}
	if s.InflightRequests() != 0 {
		t.Fatalf("in-flight = %d after the load drained, want 0", s.InflightRequests())
	}
}

// TestRequestLogSampling wires a capturing slog.Logger with LogEvery 2
// and checks exactly every second request emits one structured line
// carrying the endpoint and status attributes.
func TestRequestLogSampling(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&syncWriter{w: &buf, mu: &mu}, nil))
	_, ts := newTestServer(t, ix, Config{LogEvery: 2, Logger: logger})

	for i := 0; i < 4; i++ {
		getJSON(t, ts.URL+"/distance?s=0&t=3", http.StatusOK, nil)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := 0
	for _, l := range bytes.Split([]byte(out), []byte("\n")) {
		if len(l) > 0 {
			lines++
		}
	}
	if lines != 2 {
		t.Fatalf("LogEvery=2 over 4 requests logged %d lines, want 2:\n%s", lines, out)
	}
	for _, want := range []string{"endpoint=distance", "status=200", "method=GET"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// syncWriter serializes concurrent handler writes into one buffer.
type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
