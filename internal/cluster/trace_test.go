package cluster

// Distributed-tracing behavior at the coordinator: a routed search's
// trace carries one child span per backend attempt, with the forwarded
// traceparent joining the replica's own trace to the same tree, and a
// hedged point lookup's losing attempt shows up as a span canceled with
// the "superseded" cause. Run under -race in CI: spans for losers finish
// after the handler has returned.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pll/internal/server"
	"pll/internal/trace"
)

// newTestTracer builds an always-on (or off) head-sampling tracer.
func newTestTracer(rate float64) *trace.Tracer {
	return trace.New(trace.Config{SampleRate: rate})
}

// spanNode mirrors the /debug/traces?id= span shape.
type spanNode struct {
	Name     string            `json:"name"`
	Attrs    map[string]string `json:"attrs"`
	InFlight bool              `json:"in_flight"`
	Children []*spanNode       `json:"children"`
}

type clusterTrace struct {
	TraceID string    `json:"trace_id"`
	Kind    string    `json:"kind"`
	Spans   int       `json:"spans"`
	Root    *spanNode `json:"root"`
}

// backendSpans collects the root's direct children that are backend
// attempt spans (named "backend <host>").
func backendSpans(root *spanNode) []*spanNode {
	var out []*spanNode
	for _, c := range root.Children {
		if strings.HasPrefix(c.Name, "backend ") {
			out = append(out, c)
		}
	}
	return out
}

// fetchTrace polls the coordinator's /debug/traces until the trace has
// at least want spans (loser spans End after the handler returns).
func fetchTrace(t *testing.T, coordURL, tid string, want int) *clusterTrace {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var tr clusterTrace
	for time.Now().Before(deadline) {
		st, _, body := do(t, http.MethodGet, coordURL+"/debug/traces?id="+tid, "")
		if st == http.StatusOK {
			tr = clusterTrace{}
			if err := json.Unmarshal([]byte(body), &tr); err != nil {
				t.Fatalf("bad trace JSON: %v (%s)", err, body)
			}
			if tr.Root != nil && len(backendSpans(tr.Root)) >= want {
				allDone := true
				for _, sp := range backendSpans(tr.Root) {
					if sp.InFlight {
						allDone = false
					}
				}
				if allDone {
					return &tr
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("trace %s never reached %d finished backend spans (last: %+v)", tid, want, tr)
	return nil
}

// TestScatterTraceOneSpanPerShard runs a sampled /knn over real
// replicas and asserts the coordinator's trace holds exactly one
// finished backend span, the routed attempt, carrying its path and a
// 200 status. Only the replica that owns the search adopted the same
// trace ID: the forwarded traceparent stitched both tiers into one
// tree, and no other replica was asked.
func TestScatterTraceOneSpanPerShard(t *testing.T) {
	o := buildOracle(t, "undirected")
	// Replicas sample nothing on their own: only the coordinator's
	// forwarded sampled flag can put the request into a replica's ring.
	urls, replicas := startReplicas(t, o, 3, server.Config{TraceSampleRate: 0})
	c, coord := startCoordinator(t, urls, func(cfg *Config) {
		cfg.Stack.Tracer = newTestTracer(1)
	})

	st, hdr, _ := do(t, http.MethodGet, coord.URL+"/knn?s=0&k=5", "")
	if st != http.StatusOK {
		t.Fatalf("search status %d", st)
	}
	tid := hdr.Get("X-Trace-Id")
	if tid == "" {
		t.Fatal("no X-Trace-Id on the search response")
	}

	tr := fetchTrace(t, coord.URL, tid, 1)
	if tr.Root.Name != "knn" {
		t.Fatalf("root span %q, want \"knn\"", tr.Root.Name)
	}
	legs := backendSpans(tr.Root)
	if len(legs) != 1 {
		t.Fatalf("%d backend spans, want one for the one routed attempt", len(legs))
	}
	if sp := legs[0]; sp.Attrs["status"] != "200" || !strings.HasPrefix(sp.Attrs["path"], "/knn?") {
		t.Fatalf("backend span %q attrs = %v, want status=200 and a /knn? path", sp.Name, sp.Attrs)
	}

	owner := c.rank(hashName("/knn?s=0&k=5"))[0].base
	var joined []string
	for _, rts := range replicas {
		st, _, _ := do(t, http.MethodGet, rts.URL+"/debug/traces?id="+tid, "")
		if st == http.StatusOK {
			joined = append(joined, rts.URL)
		}
	}
	if len(joined) != 1 || joined[0] != owner {
		t.Fatalf("replicas %v adopted the coordinator's trace id, want only the owner %s", joined, owner)
	}
}

// TestHedgeLoserSpanRecordsCancelCause pins the hedge-race trace shape:
// the slow primary's attempt span ends with the superseded cancel
// cause while the winning hedge's span carries hedged=true and a 200.
func TestHedgeLoserSpanRecordsCancelCause(t *testing.T) {
	// Two fake backends sharing an identity; the slow one never answers
	// within the test, so every lookup it primaries is won by the hedge.
	newFake := func(delay time.Duration) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"status":"ok","variant":"test","generation":1,"vertices":10,"checksum":"11"}`)
		})
		mux.HandleFunc("GET /distance", func(w http.ResponseWriter, r *http.Request) {
			if delay > 0 {
				select {
				case <-r.Context().Done():
					return
				case <-time.After(delay):
				}
			}
			fmt.Fprintln(w, `{"distance":1}`)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	slow := newFake(5 * time.Second)
	fast := newFake(0)

	c, err := New(Config{
		Backends:       []string{slow.URL, fast.URL},
		HedgeAfter:     5 * time.Millisecond,
		HealthInterval: time.Hour,
		RequestTimeout: 10 * time.Second,
		Stack:          server.StackConfig{Tracer: newTestTracer(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	coord := httptest.NewServer(c.Handler())
	defer coord.Close()

	// Walk routing keys until one primaries on the slow backend (the
	// hedge then wins); run a few in parallel so the race detector sees
	// loser spans ending concurrently with /debug/traces snapshots.
	var wg sync.WaitGroup
	tids := make([]string, 8)
	for i := range tids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, hdr, _ := do(t, http.MethodGet, fmt.Sprintf("%s/distance?s=%d&t=99", coord.URL, i), "")
			if st == http.StatusOK {
				tids[i] = hdr.Get("X-Trace-Id")
			}
		}(i)
	}
	wg.Wait()

	// Loser spans end asynchronously once cancellation propagates, so
	// poll until some trace shows both the winning hedge and the
	// superseded loser.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, tid := range tids {
			if tid == "" {
				continue
			}
			st, _, body := do(t, http.MethodGet, coord.URL+"/debug/traces?id="+tid, "")
			if st != http.StatusOK {
				continue
			}
			var tr clusterTrace
			if err := json.Unmarshal([]byte(body), &tr); err != nil || tr.Root == nil {
				continue
			}
			var winner, loser *spanNode
			for _, sp := range backendSpans(tr.Root) {
				if sp.Attrs["hedged"] == "true" && sp.Attrs["status"] == "200" {
					winner = sp
				}
				if sp.Attrs["cancel"] != "" {
					loser = sp
				}
			}
			if winner != nil && loser != nil {
				if !strings.Contains(loser.Attrs["cancel"], "superseded") {
					t.Fatalf("loser cancel cause = %q, want the superseded sentinel", loser.Attrs["cancel"])
				}
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no trace showed a hedge win with a superseded loser span; hedge attempts are invisible to tracing")
}
