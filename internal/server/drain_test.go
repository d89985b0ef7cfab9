package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pll/pll"
)

// waitInflight polls until the server reports want executing requests
// or the deadline passes.
func waitInflight(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.InflightRequests() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("in-flight requests = %d, want %d", s.InflightRequests(), want)
}

// TestShutdownDrainFlatContainer reproduces the shutdown sequence that
// used to crash: a request is still mid-flight over a memory-mapped
// flat container when the listener goes down, and the old code unmapped
// the index while the handler could still be scanning mapped labels.
// The fixed sequence — Drain until the last request finishes, only then
// Close — must (a) refuse to report drained while the slow request is
// executing, (b) report drained once it completes, and (c) let the
// mapping close without any reader touching freed pages (the -race run
// of this test is the regression guard).
func TestShutdownDrainFlatContainer(t *testing.T) {
	dir := t.TempDir()
	path := writeIndexFile(t, dir, "flat.pllbox", 64)
	fi, err := pll.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, fi, Config{})

	// A slow client: the /batch body dribbles through a pipe, so the
	// handler blocks inside the body read while counted as in flight.
	pr, pw := io.Pipe()
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/batch", pr)
		if err != nil {
			done <- result{err: err}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()
	if _, err := io.WriteString(pw, `{"source":0,"targets":[1,2,3`); err != nil {
		t.Fatal(err)
	}
	waitInflight(t, s, 1)

	// The request is executing: a bounded Drain must time out and say
	// how many requests pin the index.
	shortCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(shortCtx); err == nil {
		t.Fatal("Drain returned nil with a request in flight")
	} else if !strings.Contains(err.Error(), "still in flight") {
		t.Fatalf("Drain error = %v, want it to report in-flight requests", err)
	}

	// Finish the upload; the handler now scans the mapped labels and
	// answers, after which Drain must succeed and Close is safe.
	if _, err := io.WriteString(pw, `,4,5]}`); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("slow /batch status = %d, want 200", r.status)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after completion: %v", err)
	}
	// Drained: unmapping now cannot race a reader. Close the listener
	// first so no new request sneaks in after the drain.
	ts.Close()
	c, ok := s.Oracle().Snapshot().(pll.Closer)
	if !ok {
		t.Fatal("flat index is not a Closer")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
}

// TestDrainIdle verifies Drain returns immediately on an idle server.
func TestDrainIdle(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, ix, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain on idle server: %v", err)
	}
}
