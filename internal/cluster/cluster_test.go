package cluster

// End-to-end tests: real pllserved replicas (internal/server over real
// indexes) behind a real coordinator, compared byte-for-byte against
// asking a replica directly — the contract the CI smoke job checks
// again from the outside.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pll/internal/gen"
	"pll/internal/server"
	"pll/pll"
)

// buildOracle builds one searchable index variant over a random graph.
func buildOracle(t *testing.T, variant string) pll.Oracle {
	t.Helper()
	const (
		n    = 48
		m    = 120
		seed = 17
	)
	switch variant {
	case "undirected":
		gg := gen.ErdosRenyi(n, m, seed)
		pg, err := pll.NewGraph(n, gg.Edges())
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pll.Build(pg, pll.WithPaths(), pll.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return ix
	case "undirected-bp0":
		gg := gen.ErdosRenyi(n, m, seed+1)
		pg, err := pll.NewGraph(n, gg.Edges())
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pll.Build(pg, pll.WithBitParallel(0), pll.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return ix
	case "directed":
		dg := gen.RandomDigraph(n, m, seed)
		var arcs []pll.Edge
		for v := int32(0); v < int32(n); v++ {
			for _, u := range dg.OutNeighbors(v) {
				arcs = append(arcs, pll.Edge{U: v, V: u})
			}
		}
		pg, err := pll.NewDigraph(n, arcs)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pll.BuildDirected(pg, pll.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return ix
	case "weighted":
		gg := gen.ErdosRenyi(n, m, seed)
		wg := gen.RandomWeights(gg, 1, 10, seed+1)
		var edges []pll.WeightedEdge
		for v := int32(0); v < int32(n); v++ {
			ws := wg.Weights(v)
			for i, u := range wg.Neighbors(v) {
				if v < u {
					edges = append(edges, pll.WeightedEdge{U: v, V: u, Weight: ws[i]})
				}
			}
		}
		pg, err := pll.NewWeightedGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pll.BuildWeighted(pg, pll.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	t.Fatalf("unknown variant %q", variant)
	return nil
}

// startReplicas serves the oracle from count independent replica
// servers (shared read-only index, separate server state — exactly a
// replica pool on one host).
func startReplicas(t testing.TB, o pll.Oracle, count int, cfg server.Config) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, count)
	servers := make([]*httptest.Server, count)
	for i := range urls {
		s := server.New(pll.NewConcurrentOracle(o), cfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		servers[i] = ts
	}
	return urls, servers
}

func startCoordinator(t testing.TB, urls []string, mut func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := Config{Backends: urls, HealthInterval: 25 * time.Millisecond}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

// do issues one request and returns the status and body.
func do(t *testing.T, method, url, body string) (int, http.Header, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(data)
}

// conformanceRequests is the endpoint table the coordinator must
// answer byte-identically to a direct replica: successes and error
// verdicts both.
var conformanceRequests = []struct {
	name, method, path, body string
}{
	{"distance", http.MethodGet, "/distance?s=1&t=40", ""},
	{"distance-same", http.MethodGet, "/distance?s=7&t=7", ""},
	{"distance-missing-t", http.MethodGet, "/distance?s=1", ""},
	{"distance-bad-vertex", http.MethodGet, "/distance?s=1&t=99999", ""},
	{"distance-bad-s", http.MethodGet, "/distance?s=a&t=1", ""},
	{"path", http.MethodGet, "/path?s=1&t=17", ""},
	{"batch-pairs", http.MethodPost, "/batch", `{"pairs":[[0,1],[2,3],[1,7],[4,9],[5,5],[40,2],[3,3]]}`},
	{"batch-source", http.MethodPost, "/batch", `{"source":0,"targets":[1,2,3,4,5,6,7,40,41]}`},
	{"batch-empty", http.MethodPost, "/batch", `{}`},
	{"batch-both", http.MethodPost, "/batch", `{"pairs":[[0,1]],"source":2,"targets":[3]}`},
	{"batch-bad-json", http.MethodPost, "/batch", `{not json`},
	// encoding/json names the Go request type in these messages; both
	// tiers decode into the same wire type, so the names agree.
	{"batch-not-object", http.MethodPost, "/batch", `[1,2]`},
	{"batch-bad-field", http.MethodPost, "/batch", `{"pairs":"x"}`},
	{"batch-bad-target", http.MethodPost, "/batch", `{"source":0,"targets":[1,9999]}`},
	// Three backends split five pairs into three chunks; the bad vertex
	// sits in the last one.
	{"batch-bad-last-chunk", http.MethodPost, "/batch", `{"pairs":[[0,1],[2,3],[4,5],[6,7],[8,9999]]}`},
	{"knn", http.MethodGet, "/knn?s=0&k=7", ""},
	{"knn-all", http.MethodGet, "/knn?s=3&k=100", ""},
	{"knn-bad-k", http.MethodGet, "/knn?s=0&k=0", ""},
	{"knn-missing-s", http.MethodGet, "/knn?k=3", ""},
	{"knn-bad-s", http.MethodGet, "/knn?s=x&k=3", ""},
	{"knn-bad-vertex", http.MethodGet, "/knn?s=9999&k=3", ""},
	{"knn-k-overflow", http.MethodGet, "/knn?s=0&k=99999999999", ""},
	{"range", http.MethodGet, "/range?s=0&r=3", ""},
	{"range-limit", http.MethodGet, "/range?s=0&r=4&limit=3", ""},
	{"range-negative", http.MethodGet, "/range?s=0&r=-1", ""},
	{"range-bad-r", http.MethodGet, "/range?s=0&r=x", ""},
	{"range-missing-r", http.MethodGet, "/range?s=0", ""},
	{"range-bad-limit", http.MethodGet, "/range?s=0&r=3&limit=x", ""},
	{"range-zero-limit", http.MethodGet, "/range?s=0&r=3&limit=0", ""},
	{"range-bad-vertex", http.MethodGet, "/range?s=9999&r=3", ""},
	{"nearest", http.MethodPost, "/nearest", `{"source":0,"set":[1,5,9,13,21],"k":2}`},
	{"nearest-empty-set", http.MethodPost, "/nearest", `{"source":0,"set":[],"k":2}`},
	{"nearest-bad-json", http.MethodPost, "/nearest", `{bad`},
	{"nearest-not-object", http.MethodPost, "/nearest", `[1]`},
	{"nearest-zero-k", http.MethodPost, "/nearest", `{"source":0,"set":[1,5],"k":0}`},
	{"nearest-bad-member", http.MethodPost, "/nearest", `{"source":0,"set":[1,9999],"k":1}`},
	{"nearest-bad-source", http.MethodPost, "/nearest", `{"source":9999,"set":[1,5],"k":1}`},
	{"query-near", http.MethodPost, "/query", `{"where":{"near":{"source":0,"max_dist":4}},"k":5}`},
	{"query-and", http.MethodPost, "/query", `{"where":{"and":[{"near":{"source":0,"max_dist":4}},{"near":{"source":7,"max_dist":5}}]}}`},
	{"query-ranked", http.MethodPost, "/query", `{"where":{"near":{"source":5,"max_dist":4}},"rank":{"by":"max","terms":[{"source":5,"weight":2},{"source":13}]},"k":5}`},
	{"query-invalid", http.MethodPost, "/query", `{}`},
	{"query-negative-k", http.MethodPost, "/query", `{"where":{"near":{"source":0,"max_dist":4}},"k":-1}`},
	{"query-rank-avg", http.MethodPost, "/query", `{"where":{"near":{"source":0,"max_dist":4}},"rank":{"by":"avg","terms":[{"source":0}]}}`},
	{"query-bad-vertex", http.MethodPost, "/query", `{"where":{"near":{"source":9999,"max_dist":4}}}`},
	{"query-untrimmed", http.MethodPost, "/query", `{"where":{"near":{"source":0,"max_dist":3}},"k":0}`},
}

// TestCoordinatorByteIdentical is the core contract: with a whole
// pool, every coordinator answer — success or error — is byte-for-byte
// the answer a single replica gives.
func TestCoordinatorByteIdentical(t *testing.T) {
	for _, variant := range []string{"undirected", "undirected-bp0", "directed", "weighted"} {
		t.Run(variant, func(t *testing.T) {
			o := buildOracle(t, variant)
			urls, _ := startReplicas(t, o, 3, server.Config{})
			_, coord := startCoordinator(t, urls, nil)
			for _, req := range conformanceRequests {
				t.Run(req.name, func(t *testing.T) {
					ds, _, dbody := do(t, req.method, urls[0]+req.path, req.body)
					cs, _, cbody := do(t, req.method, coord.URL+req.path, req.body)
					if cs != ds {
						t.Fatalf("status %d, direct %d (direct body %q, coord body %q)", cs, ds, dbody, cbody)
					}
					if cbody != dbody {
						t.Fatalf("coordinator body differs from direct:\n coord: %q\ndirect: %q", cbody, dbody)
					}
				})
			}
		})
	}
}

// TestCoordinatorFanoutCaps pins that oversized fan-outs are shed at
// the coordinator with the replica's exact rejection, before any
// scatter (the amplification guard).
func TestCoordinatorFanoutCaps(t *testing.T) {
	o := buildOracle(t, "undirected")
	cfg := server.Config{MaxBatch: 4, MaxBody: 256}
	urls, _ := startReplicas(t, o, 2, cfg)
	_, coord := startCoordinator(t, urls, func(c *Config) {
		c.MaxBatch = 4
		c.MaxBody = 256
	})
	for _, req := range []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"batch-over", http.MethodPost, "/batch", `{"pairs":[[0,1],[1,2],[2,3],[3,4],[4,5]]}`, http.StatusRequestEntityTooLarge},
		{"knn-over", http.MethodGet, "/knn?s=0&k=5", "", http.StatusBadRequest},
		{"range-limit-over", http.MethodGet, "/range?s=0&r=3&limit=9", "", http.StatusBadRequest},
		{"nearest-set-over", http.MethodPost, "/nearest", `{"source":0,"set":[1,2,3,4,5],"k":2}`, http.StatusBadRequest},
		{"query-k-over", http.MethodPost, "/query", `{"where":{"near":{"source":0,"max_dist":3}},"k":9}`, http.StatusBadRequest},
		{"body-over", http.MethodPost, "/nearest", `{"source":0,"set":[` + strings.Repeat("1,", 200) + `1],"k":1}`, http.StatusRequestEntityTooLarge},
	} {
		t.Run(req.name, func(t *testing.T) {
			ds, _, dbody := do(t, req.method, urls[0]+req.path, req.body)
			cs, _, cbody := do(t, req.method, coord.URL+req.path, req.body)
			if cs != req.wantStatus || ds != req.wantStatus {
				t.Fatalf("status coord=%d direct=%d, want %d", cs, ds, req.wantStatus)
			}
			if cbody != dbody {
				t.Fatalf("coordinator rejection differs from direct:\n coord: %q\ndirect: %q", cbody, dbody)
			}
		})
	}
}

// waitUsable polls until the coordinator sees exactly n usable
// backends.
func waitUsable(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.Healthy() == n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never saw %d usable backends (has %d)", n, c.Healthy())
}

// TestPartialFailureDegradesExplicitly kills one replica of three and
// checks the degradation contract: searches keep answering the whole
// pool's bytes, point lookups fail over, and the coordinator's own
// /healthz stays 200 (degraded, not dead).
func TestPartialFailureDegradesExplicitly(t *testing.T) {
	o := buildOracle(t, "undirected")
	urls, servers := startReplicas(t, o, 3, server.Config{})
	c, coord := startCoordinator(t, urls, nil)
	waitUsable(t, c, 3)

	_, _, whole := do(t, http.MethodGet, coord.URL+"/knn?s=0&k=5", "")

	servers[2].CloseClientConnections()
	servers[2].Close()
	waitUsable(t, c, 2)

	status, _, after := do(t, http.MethodGet, coord.URL+"/knn?s=0&k=5", "")
	if status != http.StatusOK {
		t.Fatalf("/knn after kill: status %d, want 200 (%s)", status, after)
	}
	// Every replica holds the whole index, so one fewer changes no
	// answer.
	if after != whole {
		t.Fatalf("/knn after kill differs from the whole pool's:\n after: %q\n whole: %q", after, whole)
	}

	// Point lookups fail over to surviving replicas (the dead one still
	// owns ~1/3 of the rendezvous keyspace).
	for s := 0; s < 9; s++ {
		st, _, body := do(t, http.MethodGet, coord.URL+"/distance?s="+strconv.Itoa(s)+"&t=40", "")
		if st != http.StatusOK {
			t.Fatalf("distance s=%d after kill: status %d (%s)", s, st, body)
		}
	}

	hs, _, hbody := do(t, http.MethodGet, coord.URL+"/healthz", "")
	if hs != http.StatusOK {
		t.Fatalf("degraded /healthz: status %d, want 200", hs)
	}
	if !strings.Contains(hbody, `"status":"degraded"`) {
		t.Fatalf("degraded /healthz payload: %s", hbody)
	}

	// Kill the rest: point lookups and searches now fail fast, and the
	// coordinator finally reports unavailable.
	servers[0].CloseClientConnections()
	servers[0].Close()
	servers[1].CloseClientConnections()
	servers[1].Close()
	waitUsable(t, c, 0)
	if st, _, _ := do(t, http.MethodGet, coord.URL+"/distance?s=0&t=1", ""); st != http.StatusServiceUnavailable {
		t.Fatalf("all-dead /distance: status %d, want 503", st)
	}
	if st, _, _ := do(t, http.MethodGet, coord.URL+"/knn?s=0&k=3", ""); st != http.StatusServiceUnavailable {
		t.Fatalf("all-dead /knn: status %d, want 503", st)
	}
	if st, _, _ := do(t, http.MethodGet, coord.URL+"/healthz", ""); st != http.StatusServiceUnavailable {
		t.Fatalf("all-dead /healthz: status %d, want 503", st)
	}
}

// ownedSearch returns the first search build(0), build(1), … whose
// rendezvous owner at c is the backend at base. build returns the path
// and body the coordinator forwards, which the caller sends unchanged.
func ownedSearch(t *testing.T, c *Coordinator, base string, build func(s int) (path, body string)) (string, string) {
	t.Helper()
	for s := 0; s < 48; s++ {
		path, body := build(s)
		if c.rank(hashName(path + body))[0].base == base {
			return path, body
		}
	}
	t.Fatalf("no search among 48 is owned by %s", base)
	return "", ""
}

// TestRoutedSearch429Relays pins that a search's 429 is final. The
// replica that owns the search relays its 429 with Retry-After intact,
// and no other replica is asked: walking past the 429 would let a
// client rate-limited at one replica (keyed by the forwarded
// X-Client-Id) spend the other replicas' budgets. Once the owner stops
// shedding, the search answers with the replica's bytes; with every
// replica shedding, the 429 still relays.
func TestRoutedSearch429Relays(t *testing.T) {
	o := buildOracle(t, "undirected")
	var (
		shed     [3]atomic.Bool
		knns     [3]atomic.Int64
		clientID [3]atomic.Value
	)
	urls := make([]string, len(shed))
	for i := range urls {
		s := server.New(pll.NewConcurrentOracle(o), server.Config{})
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/knn" {
				knns[i].Add(1)
			}
			// /healthz stays exempt: a loaded replica is still a live,
			// identity-matched pool member.
			if shed[i].Load() && r.URL.Path != "/healthz" {
				clientID[i].Store(r.Header.Get("X-Client-Id"))
				w.Header().Set("Retry-After", "3")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprintln(w, `{"error":"server over capacity"}`)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	c, coord := startCoordinator(t, urls, nil)
	waitUsable(t, c, 3)
	path, _ := ownedSearch(t, c, urls[2], func(s int) (string, string) {
		return fmt.Sprintf("/knn?s=%d&k=5", s), ""
	})
	search := func() (int, http.Header) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, coord.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-Id", "tenant-7")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	shed[2].Store(true)
	st, hdr := search()
	if st != http.StatusTooManyRequests {
		t.Fatalf("search owned by a shedding replica: status %d, want its 429", st)
	}
	if got := hdr.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", got)
	}
	if got, _ := clientID[2].Load().(string); got != "tenant-7" {
		t.Fatalf("shedding replica saw X-Client-Id %q, want \"tenant-7\"", got)
	}
	if n := knns[0].Load() + knns[1].Load(); n != 0 {
		t.Fatalf("the 429 was walked past: the other replicas got %d /knn requests", n)
	}

	shed[2].Store(false)
	_, _, direct := do(t, http.MethodGet, urls[2]+path, "")
	if st, _, body := do(t, http.MethodGet, coord.URL+path, ""); st != http.StatusOK || body != direct {
		t.Fatalf("search after shedding stopped: status %d body %q, want 200 %q", st, body, direct)
	}

	// Every replica shedding: the owner's 429 still relays.
	for i := range shed {
		shed[i].Store(true)
	}
	st, hdr = search()
	if st != http.StatusTooManyRequests {
		t.Fatalf("all-shed search: status %d, want 429", st)
	}
	if got := hdr.Get("Retry-After"); got != "3" {
		t.Fatalf("all-shed Retry-After %q, want \"3\"", got)
	}
}

// TestBatchChunkFailover kills a replica WITHOUT waiting for a health
// sweep: chunks assigned to the dead backend must fail over to the
// survivors and the reassembled answer stays byte-identical.
func TestBatchChunkFailover(t *testing.T) {
	o := buildOracle(t, "undirected")
	urls, servers := startReplicas(t, o, 3, server.Config{})
	_, coord := startCoordinator(t, urls, func(c *Config) {
		// Health sweeps far apart: the coordinator still believes the
		// dead backend is healthy when the batch arrives.
		c.HealthInterval = time.Hour
		c.RequestTimeout = 2 * time.Second
	})

	body := `{"pairs":[[0,1],[2,3],[1,7],[4,9],[5,5],[40,2],[3,3],[8,30],[9,31]]}`
	_, _, want := do(t, http.MethodPost, urls[0]+"/batch", body)

	servers[1].CloseClientConnections()
	servers[1].Close()

	status, _, got := do(t, http.MethodPost, coord.URL+"/batch", body)
	if status != http.StatusOK {
		t.Fatalf("batch after kill: status %d (%s)", status, got)
	}
	if got != want {
		t.Fatalf("failover batch differs:\n got: %q\nwant: %q", got, want)
	}
}

// TestRoutedSearchFailover closes a replica WITHOUT waiting for a
// health sweep: each search the dead replica owns must fail over down
// the ranking and answer 200 with a live replica's exact bytes.
func TestRoutedSearchFailover(t *testing.T) {
	o := buildOracle(t, "undirected")
	urls, servers := startReplicas(t, o, 3, server.Config{})
	c, coord := startCoordinator(t, urls, func(c *Config) {
		// Health sweeps far apart: the coordinator still believes the
		// dead backend is healthy when the searches arrive.
		c.HealthInterval = time.Hour
		// The breaker stays closed, so every search below reaches its
		// dead owner first and the owner's error count shows it.
		c.BreakerFailures = 100
	})
	dead := c.backends[1]
	servers[1].CloseClientConnections()
	servers[1].Close()

	for _, search := range []struct {
		method string
		build  func(s int) (path, body string)
	}{
		{http.MethodGet, func(s int) (string, string) { return fmt.Sprintf("/knn?s=%d&k=5", s), "" }},
		{http.MethodGet, func(s int) (string, string) { return fmt.Sprintf("/range?s=%d&r=3&limit=20", s), "" }},
		{http.MethodPost, func(s int) (string, string) {
			return "/nearest", fmt.Sprintf(`{"source":%d,"set":[1,5,9,13,21],"k":2}`, s)
		}},
		// The canonical form ParseQuery forwards.
		{http.MethodPost, func(s int) (string, string) {
			return "/query", fmt.Sprintf(`{"where":{"near":{"source":%d,"max_dist":3}},"rank":{"by":"sum","terms":[{"source":%d,"weight":1}]},"k":5}`, s, s)
		}},
	} {
		path, body := ownedSearch(t, c, dead.base, search.build)
		tried := dead.errs.Load()
		_, _, want := do(t, search.method, urls[0]+path, body)
		st, _, got := do(t, search.method, coord.URL+path, body)
		if st != http.StatusOK || got != want {
			t.Errorf("%s %s owned by the dead replica: status %d body %q, want 200 %q", search.method, path, st, got, want)
		}
		if dead.errs.Load() != tried+1 {
			t.Errorf("%s %s never tried its dead owner", search.method, path)
		}
	}
}

// TestBatchBadReplicaAnswer: a replica's 200 /batch answer that does
// not decode, or holds a distance count other than its chunk's, is a
// protocol violation answered 502, never merged into a shifted answer.
func TestBatchBadReplicaAnswer(t *testing.T) {
	for answer, want := range map[string]string{
		`{"count":1,"distances":[1]}`: "bad response: 1 distances for a chunk of 2",
		`{"count":2,"distances":[1,`:  "bad response: unexpected end of JSON input",
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"status":"ok","variant":"test","generation":1,"vertices":10,"checksum":"ff"}`)
		})
		mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, answer)
		})
		replica := httptest.NewServer(mux)
		t.Cleanup(replica.Close)
		_, coord := startCoordinator(t, []string{replica.URL}, func(c *Config) { c.HealthInterval = time.Hour })
		status, _, got := do(t, http.MethodPost, coord.URL+"/batch", `{"pairs":[[0,1],[2,3]]}`)
		if status != http.StatusBadGateway || !strings.Contains(got, want) {
			t.Errorf("replica answering %s: got %d %s, want 502 with %q", answer, status, got, want)
		}
	}
}

// TestIdentityMismatchExcluded serves two different indexes behind one
// coordinator: the minority replica must be excluded from routing so
// merged answers never mix indexes.
func TestIdentityMismatchExcluded(t *testing.T) {
	a := buildOracle(t, "undirected")
	b := buildOracle(t, "undirected-bp0") // different graph, different checksum
	urlsA, _ := startReplicas(t, a, 2, server.Config{})
	urlsB, _ := startReplicas(t, b, 1, server.Config{})

	// Mixed pool: 2 votes for index A, 1 for index B.
	c2, coord2 := startCoordinator(t, []string{urlsA[0], urlsB[0], urlsA[1]}, nil)
	waitUsable(t, c2, 2)

	hs, _, hbody := do(t, http.MethodGet, coord2.URL+"/healthz", "")
	if hs != http.StatusOK {
		t.Fatalf("/healthz with mismatched replica: status %d", hs)
	}
	if !strings.Contains(hbody, `"mismatch":true`) {
		t.Fatalf("mismatched replica not flagged: %s", hbody)
	}

	// The scatter denominator excludes the mismatched backend entirely:
	// with both matching replicas up, answers are complete.
	st, _, body := do(t, http.MethodGet, coord2.URL+"/knn?s=0&k=5", "")
	if st != http.StatusOK || strings.Contains(body, `"incomplete"`) {
		t.Fatalf("pool with excluded mismatch should answer complete: status %d body %s", st, body)
	}
	ds, _, dbody := do(t, http.MethodGet, urlsA[0]+"/knn?s=0&k=5", "")
	if st != ds || body != dbody {
		t.Fatalf("answer over mixed pool differs from majority index:\n coord: %q\ndirect: %q", body, dbody)
	}
}

func TestRendezvousRankStability(t *testing.T) {
	cfg := Config{Backends: []string{"http://a:1", "http://b:1", "http://c:1"}}
	bs := []*backend{
		newBackend("http://a:1", "a:1", cfg),
		newBackend("http://b:1", "b:1", cfg),
		newBackend("http://c:1", "c:1", cfg),
	}
	for _, b := range bs {
		b.healthy.Store(true)
	}
	c := &Coordinator{backends: bs}
	// Removing one backend must not remap keys it did not own: every
	// key ranked (x, y, ...) keeps x as its primary when a different
	// backend drops out.
	moved := 0
	const keys = 500
	for i := 0; i < keys; i++ {
		key := hashName(string(rune('k')) + string(rune(i)))
		full := c.rank(key)
		loser := full[len(full)-1]
		loser.healthy.Store(false)
		reduced := c.rank(key)
		loser.healthy.Store(true)
		if reduced[0] != full[0] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d/%d keys changed primary when a non-primary backend dropped", moved, keys)
	}
}

// TestBreaker pins the breaker state machine: opens after the
// configured consecutive failures, rejects while open, admits one
// send-time probe after the cooldown, closes on success — and
// routability reads never consume the probe slot.
func TestBreaker(t *testing.T) {
	br := breaker{failLimit: 3, cooldown: 30 * time.Millisecond, probeTTL: 10 * time.Second}
	for i := 0; i < 2; i++ {
		br.fail()
	}
	if ok, probe := br.acquire(); !ok || probe {
		t.Fatal("breaker opened before the failure limit")
	}
	br.fail()
	if br.canRoute() {
		t.Fatal("breaker routable right after opening")
	}
	if ok, _ := br.acquire(); ok {
		t.Fatal("attempt admitted while the breaker is open")
	}
	time.Sleep(40 * time.Millisecond)
	// Cooldown elapsed: any number of read-only routability checks (the
	// /metrics, /healthz and ranking paths) must leave the probe slot
	// untouched...
	for i := 0; i < 100; i++ {
		if !br.canRoute() {
			t.Fatal("cooled-down breaker not routable")
		}
	}
	// ...and send time still admits exactly one probe.
	if ok, probe := br.acquire(); !ok || !probe {
		t.Fatal("probe not admitted after cooldown")
	}
	if ok, _ := br.acquire(); ok {
		t.Fatal("second probe admitted while the first is in flight")
	}
	br.succeed()
	if ok, probe := br.acquire(); !ok || probe {
		t.Fatal("breaker not closed after a success")
	}
	if !br.canRoute() {
		t.Fatal("breaker not routable after a success")
	}
}

// TestBreakerProbeReleaseAndExpiry pins the two self-heal paths for a
// probe slot whose holder never reports an outcome: an explicit
// release (attempt aborted by cancellation) frees it immediately, and
// an abandoned slot expires after probeTTL — either way the breaker
// cannot be stranded open.
func TestBreakerProbeReleaseAndExpiry(t *testing.T) {
	br := breaker{failLimit: 1, cooldown: 5 * time.Millisecond, probeTTL: 30 * time.Millisecond}
	br.fail()
	time.Sleep(10 * time.Millisecond)
	if ok, probe := br.acquire(); !ok || !probe {
		t.Fatal("probe not admitted after cooldown")
	}
	br.release()
	if ok, probe := br.acquire(); !ok || !probe {
		t.Fatal("released probe slot not reusable")
	}
	// Abandon this probe without any report: before probeTTL the slot
	// stays held, after it the slot is reclaimable.
	if ok, _ := br.acquire(); ok {
		t.Fatal("probe slot double-acquired before expiry")
	}
	time.Sleep(40 * time.Millisecond)
	if ok, probe := br.acquire(); !ok || !probe {
		t.Fatal("abandoned probe never expired; breaker stranded open")
	}
}

// TestBreakerOnlyProbeFreesSlot pins that only the probe frees its
// slot. A plain attempt admitted before the breaker opened may fail
// while the recovery probe is in flight; that failure must leave the
// slot held, or the next cooldown admits a second concurrent probe.
// The probe frees the slot itself when its attempt ends, so after a
// failed probe the next cooldown admits the next one.
func TestBreakerOnlyProbeFreesSlot(t *testing.T) {
	br := breaker{failLimit: 1, cooldown: time.Millisecond, probeTTL: 10 * time.Second}
	if ok, probe := br.acquire(); !ok || probe {
		t.Fatal("closed breaker did not admit a plain attempt")
	}
	br.fail() // another attempt fails and opens the breaker
	time.Sleep(5 * time.Millisecond)
	if ok, probe := br.acquire(); !ok || !probe {
		t.Fatal("probe not admitted after cooldown")
	}
	br.fail() // the plain attempt fails while the probe is in flight
	time.Sleep(5 * time.Millisecond)
	if ok, probe := br.acquire(); ok {
		t.Fatalf("acquire = (%v, %v) while the probe is in flight: a plain failure freed its slot", ok, probe)
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	c, err := New(Config{
		Backends:        []string{gone.URL},
		HealthInterval:  time.Hour,
		BreakerFailures: 1,
		BreakerCooldown: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := httptest.NewRequest(http.MethodGet, "/distance?s=0&t=1", nil)
	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		pr := c.fetch(context.Background(), c.backends[0], in, http.MethodGet, "/distance?s=0&t=1", nil, pointAttempt)
		if errors.Is(pr.err, errBreakerOpen) {
			t.Fatalf("attempt %d rejected by the breaker: the failed probe before it kept its slot", i)
		}
	}
}
