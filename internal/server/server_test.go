package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pll/internal/wire"
	"pll/pll"
)

// lineGraph returns the path graph 0-1-...-(n-1).
func lineGraph(t *testing.T, n int) *pll.Graph {
	t.Helper()
	edges := make([]pll.Edge, n-1)
	for i := range edges {
		edges[i] = pll.Edge{U: int32(i), V: int32(i + 1)}
	}
	g, err := pll.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newTestServer serves the given oracle on an httptest server.
func newTestServer(t *testing.T, o pll.Oracle, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(pll.NewConcurrentOracle(o), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getJSON issues a GET and decodes the JSON response into out.
func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
}

// postJSON issues a POST with a JSON body and decodes the response.
func postJSON(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v", url, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})
	var resp struct {
		Status     string `json:"status"`
		Vertices   int    `json:"vertices"`
		Variant    string `json:"variant"`
		Generation int64  `json:"generation"`
		Checksum   string `json:"checksum"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &resp)
	if resp.Status != "ok" || resp.Vertices != 5 {
		t.Fatalf("healthz = %+v", resp)
	}
	// The identity fields are the cluster coordinator's pooling key: a
	// replica pool refuses to merge answers across disagreeing values.
	if resp.Variant != "undirected" || resp.Checksum == "" {
		t.Fatalf("healthz identity = %+v", resp)
	}
}

func TestDistanceEndpoint(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})
	var resp distanceResponse
	getJSON(t, ts.URL+"/distance?s=0&t=7", http.StatusOK, &resp)
	if resp.Distance != 7 || !resp.Reachable {
		t.Fatalf("distance = %+v", resp)
	}

	// Bad input shapes.
	for _, q := range []string{"", "?s=0", "?s=0&t=zzz", "?s=0&t=99", "?s=-5&t=0"} {
		getJSON(t, ts.URL+"/distance"+q, http.StatusBadRequest, nil)
	}
}

func TestDistanceUnreachable(t *testing.T) {
	// Two components: 0-1 and 2-3.
	g, err := pll.NewGraph(4, []pll.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})
	var resp distanceResponse
	getJSON(t, ts.URL+"/distance?s=0&t=3", http.StatusOK, &resp)
	if resp.Reachable || resp.Distance != int64(pll.Unreachable) {
		t.Fatalf("disconnected pair = %+v", resp)
	}
}

func TestPathEndpoint(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 6), pll.WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})
	var resp struct {
		Path      []int32 `json:"path"`
		Hops      int     `json:"hops"`
		Reachable bool    `json:"reachable"`
	}
	getJSON(t, ts.URL+"/path?s=1&t=4", http.StatusOK, &resp)
	if !resp.Reachable || resp.Hops != 3 || len(resp.Path) != 4 || resp.Path[0] != 1 || resp.Path[3] != 4 {
		t.Fatalf("path = %+v", resp)
	}
}

func TestPathWithoutParentPointers(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})
	getJSON(t, ts.URL+"/path?s=0&t=3", http.StatusConflict, nil)
}

func TestBatchPairs(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})
	var resp struct {
		Count     int     `json:"count"`
		Distances []int64 `json:"distances"`
	}
	postJSON(t, ts.URL+"/batch",
		wire.BatchRequest{Pairs: [][2]int32{{0, 9}, {3, 3}, {2, 5}}},
		http.StatusOK, &resp)
	want := []int64{9, 0, 3}
	if resp.Count != 3 || len(resp.Distances) != 3 {
		t.Fatalf("batch = %+v", resp)
	}
	for i, d := range want {
		if resp.Distances[i] != d {
			t.Fatalf("distances = %v, want %v", resp.Distances, want)
		}
	}
}

func TestBatchSingleSource(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})
	src := int32(0)
	var resp struct {
		Distances []int64 `json:"distances"`
	}
	postJSON(t, ts.URL+"/batch",
		wire.BatchRequest{Source: &src, Targets: []int32{1, 5, 9, 0}},
		http.StatusOK, &resp)
	want := []int64{1, 5, 9, 0}
	for i, d := range want {
		if resp.Distances[i] != d {
			t.Fatalf("distances = %v, want %v", resp.Distances, want)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{MaxBatch: 2})
	src := int32(0)
	// Both forms at once.
	postJSON(t, ts.URL+"/batch",
		wire.BatchRequest{Source: &src, Targets: []int32{1}, Pairs: [][2]int32{{0, 1}}},
		http.StatusBadRequest, nil)
	// Neither form.
	postJSON(t, ts.URL+"/batch", wire.BatchRequest{}, http.StatusBadRequest, nil)
	// Out-of-range vertex.
	postJSON(t, ts.URL+"/batch",
		wire.BatchRequest{Pairs: [][2]int32{{0, 17}}},
		http.StatusBadRequest, nil)
	// Over the batch cap.
	postJSON(t, ts.URL+"/batch",
		wire.BatchRequest{Pairs: [][2]int32{{0, 1}, {1, 2}, {2, 3}}},
		http.StatusRequestEntityTooLarge, nil)
}

func TestUpdateEndpointDynamic(t *testing.T) {
	di, err := pll.BuildDynamic(lineGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, di, Config{CacheSize: 64})
	var before distanceResponse
	getJSON(t, ts.URL+"/distance?s=0&t=7", http.StatusOK, &before)
	if before.Distance != 7 {
		t.Fatalf("before = %+v", before)
	}
	var upd struct {
		Inserted int `json:"inserted"`
	}
	postJSON(t, ts.URL+"/update",
		updateRequest{Edges: [][2]int32{{0, 6}, {0, 7}}},
		http.StatusOK, &upd)
	if upd.Inserted != 2 {
		t.Fatalf("update = %+v", upd)
	}
	// The cached pre-update distance must be gone.
	var after distanceResponse
	getJSON(t, ts.URL+"/distance?s=0&t=7", http.StatusOK, &after)
	if after.Distance != 1 || after.Cached {
		t.Fatalf("after = %+v", after)
	}

	// Out-of-range edge.
	postJSON(t, ts.URL+"/update",
		updateRequest{Edges: [][2]int32{{0, 1000}}},
		http.StatusBadRequest, nil)
	// Empty body.
	postJSON(t, ts.URL+"/update", updateRequest{}, http.StatusBadRequest, nil)
}

// TestUpdateFailedInsertChangesNothing joins two 200-vertex paths,
// whose insert overruns the 8-bit distance budget during the label
// repair. The /update must fail with 500 and leave the served index as
// it was: every distance from one path to the other stays unreachable.
func TestUpdateFailedInsertChangesNothing(t *testing.T) {
	const half = 200
	var edges []pll.Edge
	for v := int32(0); v < 2*half-1; v++ {
		if v != half-1 {
			edges = append(edges, pll.Edge{U: v, V: v + 1})
		}
	}
	g, err := pll.NewGraph(2*half, edges)
	if err != nil {
		t.Fatal(err)
	}
	di, err := pll.BuildDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, di, Config{CacheSize: 64})
	postJSON(t, ts.URL+"/update",
		updateRequest{Edges: [][2]int32{{half - 1, half}}},
		http.StatusInternalServerError, nil)
	src := int32(half - 1)
	req := wire.BatchRequest{Source: &src}
	for v := int32(half); v < 2*half; v++ {
		req.Targets = append(req.Targets, v)
	}
	var resp wire.BatchResponse
	postJSON(t, ts.URL+"/batch", req, http.StatusOK, &resp)
	for i, d := range resp.Distances {
		if d != pll.Unreachable {
			t.Fatalf("distance %d-%d = %d after the failed update, want %d", src, req.Targets[i], d, pll.Unreachable)
		}
	}
	if len(resp.Distances) != half {
		t.Fatalf("%d distances, want %d", len(resp.Distances), half)
	}
}

// TestUpdateBatchAppliesWholeOrNothing sends a two-edge /update to the
// two-path index: {0,100} alone would shorten d(0,100) to 1, but
// {199,200} overruns the 8-bit distance budget. The 500 must mean no
// edge took effect: d(0,100) still reads 100, and /stats counts no
// update and the label entries of the untouched index.
func TestUpdateBatchAppliesWholeOrNothing(t *testing.T) {
	const half = 200
	var edges []pll.Edge
	for v := int32(0); v < 2*half-1; v++ {
		if v != half-1 {
			edges = append(edges, pll.Edge{U: v, V: v + 1})
		}
	}
	g, err := pll.NewGraph(2*half, edges)
	if err != nil {
		t.Fatal(err)
	}
	di, err := pll.BuildDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	entries := di.Stats().TotalLabelEntries
	_, ts := newTestServer(t, di, Config{CacheSize: 64})
	distance := func(want int64) {
		t.Helper()
		var d distanceResponse
		getJSON(t, ts.URL+"/distance?s=0&t=100", http.StatusOK, &d)
		if d.Distance != want {
			t.Fatalf("d(0,100) = %d, want %d", d.Distance, want)
		}
	}
	distance(100)
	postJSON(t, ts.URL+"/update",
		updateRequest{Edges: [][2]int32{{0, 100}, {half - 1, half}}},
		http.StatusInternalServerError, nil)
	distance(100)
	var st struct {
		Index struct {
			LabelEntries int64 `json:"label_entries"`
		} `json:"index"`
		Server struct {
			Updates int64 `json:"updates"`
		} `json:"server"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Server.Updates != 0 || st.Index.LabelEntries != entries {
		t.Fatalf("after the failed update: %d updates and %d label entries, want 0 and %d",
			st.Server.Updates, st.Index.LabelEntries, entries)
	}
	// The first edge on its own applies.
	postJSON(t, ts.URL+"/update", updateRequest{Edges: [][2]int32{{0, 100}}}, http.StatusOK, nil)
	distance(1)
}

// statsCounter counts the label scans (Stats calls) made on the oracle
// it wraps.
type statsCounter struct {
	pll.Oracle
	calls atomic.Int64
}

func (o *statsCounter) Stats() pll.Stats {
	o.calls.Add(1)
	return o.Oracle.Stats()
}

// TestStatsScannedOnce: /stats, /healthz, /metrics and the 409 of an
// /update on a static index all read the stats memoized per (generation,
// updates), so together they scan the labels once.
func TestStatsScannedOnce(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	o := &statsCounter{Oracle: ix}
	_, ts := newTestServer(t, o, Config{})
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+"/stats", http.StatusOK, nil)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	getJSON(t, ts.URL+"/metrics", http.StatusOK, nil)
	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/update",
			updateRequest{Edges: [][2]int32{{0, 3}}},
			http.StatusConflict, nil)
	}
	if n := o.calls.Load(); n != 1 {
		t.Fatalf("%d Stats calls, want 1", n)
	}
}

func TestUpdateEndpointStaticConflicts(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{})
	postJSON(t, ts.URL+"/update",
		updateRequest{Edges: [][2]int32{{0, 3}}},
		http.StatusConflict, nil)
}

func TestStatsEndpoint(t *testing.T) {
	ix, err := pll.Build(lineGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{CacheSize: 32})
	getJSON(t, ts.URL+"/distance?s=0&t=5", http.StatusOK, nil)
	getJSON(t, ts.URL+"/distance?s=0&t=5", http.StatusOK, nil) // cache hit
	var resp struct {
		Index struct {
			Variant  string `json:"variant"`
			Vertices int    `json:"vertices"`
		} `json:"index"`
		Server struct {
			Queries    int64  `json:"queries"`
			Generation uint64 `json:"generation"`
		} `json:"server"`
		Cache struct {
			Enabled bool  `json:"enabled"`
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int   `json:"entries"`
		} `json:"cache"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &resp)
	if resp.Index.Variant != "undirected" || resp.Index.Vertices != 6 {
		t.Fatalf("stats.index = %+v", resp.Index)
	}
	if resp.Server.Queries != 2 || resp.Server.Generation != 0 {
		t.Fatalf("stats.server = %+v", resp.Server)
	}
	if !resp.Cache.Enabled || resp.Cache.Hits != 1 || resp.Cache.Misses != 1 || resp.Cache.Entries != 1 {
		t.Fatalf("stats.cache = %+v", resp.Cache)
	}
}

// writeIndexFile builds an index over a line graph of n vertices and
// writes it as a container file, the format /reload opens zero-copy.
func writeIndexFile(t *testing.T, dir string, name string, n int) string {
	t.Helper()
	ix, err := pll.Build(lineGraph(t, n))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := pll.WriteFlatFile(path, ix); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReloadFlatContainer hot-swaps a heap-loaded serving oracle onto a
// memory-mapped container and then onto another one, exercising the
// zero-copy reload path and the deferred Close of the retired mapping
// (a short CloseGrace lets the retirement actually run).
func TestReloadFlatContainer(t *testing.T) {
	dir := t.TempDir()
	first := writeIndexFile(t, dir, "first.pllbox", 4)
	flat := writeIndexFile(t, dir, "flat.pllbox", 9)

	o, err := pll.LoadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, o, Config{IndexPath: first, CacheSize: 16, CloseGrace: time.Millisecond})

	var rr struct {
		Vertices   int    `json:"vertices"`
		Variant    string `json:"variant"`
		Generation uint64 `json:"generation"`
	}
	postJSON(t, ts.URL+"/reload", reloadRequest{Path: flat}, http.StatusOK, &rr)
	if rr.Vertices != 9 {
		t.Fatalf("reloaded flat index has %d vertices, want 9", rr.Vertices)
	}
	if _, ok := srv.Oracle().Snapshot().(*pll.FlatIndex); !ok {
		t.Fatalf("serving %T after flat reload, want *pll.FlatIndex", srv.Oracle().Snapshot())
	}
	var dr distanceResponse
	getJSON(t, ts.URL+"/distance?s=0&t=8", http.StatusOK, &dr)
	if dr.Distance != 8 {
		t.Fatalf("d(0,8) = %d on the mapped line graph, want 8", dr.Distance)
	}

	// Swap back to the -index file: the retired FlatIndex must be
	// closed after the grace period without disturbing serving.
	postJSON(t, ts.URL+"/reload", reloadRequest{}, http.StatusOK, &rr)
	if rr.Vertices != 4 {
		t.Fatalf("reloaded first index has %d vertices, want 4", rr.Vertices)
	}
	time.Sleep(20 * time.Millisecond) // let the AfterFunc close the mapping
	getJSON(t, ts.URL+"/distance?s=0&t=3", http.StatusOK, &dr)
	if dr.Distance != 3 {
		t.Fatalf("d(0,3) = %d after swapping back, want 3", dr.Distance)
	}
}

func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	first := writeIndexFile(t, dir, "first.pllbox", 4)
	second := writeIndexFile(t, dir, "second.pllbox", 9)

	o, err := pll.LoadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, o, Config{IndexPath: first, CacheSize: 16})

	// Warm the cache, then swap in the bigger index by explicit path.
	getJSON(t, ts.URL+"/distance?s=0&t=3", http.StatusOK, nil)
	var resp struct {
		Vertices   int    `json:"vertices"`
		Generation uint64 `json:"generation"`
	}
	postJSON(t, ts.URL+"/reload", reloadRequest{Path: second}, http.StatusOK, &resp)
	if resp.Vertices != 9 || resp.Generation != 1 {
		t.Fatalf("reload = %+v", resp)
	}
	var d distanceResponse
	getJSON(t, ts.URL+"/distance?s=0&t=8", http.StatusOK, &d)
	if d.Distance != 8 || d.Cached {
		t.Fatalf("post-reload distance = %+v", d)
	}

	// Empty body re-reads the configured path (back to 4 vertices).
	postJSON(t, ts.URL+"/reload", nil, http.StatusOK, &resp)
	if resp.Vertices != 4 || resp.Generation != 2 {
		t.Fatalf("reload from IndexPath = %+v", resp)
	}

	// A bad path reports failure and keeps serving the old index.
	postJSON(t, ts.URL+"/reload", reloadRequest{Path: filepath.Join(dir, "missing.pllbox")},
		http.StatusUnprocessableEntity, nil)
	var h struct {
		Vertices int `json:"vertices"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Vertices != 4 {
		t.Fatalf("index lost after failed reload: %+v", h)
	}
}

func TestReloadRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	good := writeIndexFile(t, dir, "good.pllbox", 4)
	bad := filepath.Join(dir, "bad.pllbox")
	if err := os.WriteFile(bad, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := pll.LoadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, o, Config{IndexPath: good})
	postJSON(t, ts.URL+"/reload", reloadRequest{Path: bad}, http.StatusUnprocessableEntity, nil)
}

// TestConcurrentQueriesUpdatesAndReloads is the subsystem's race
// exercise: HTTP readers, an /update writer and a /reload swapper all
// run at once against one server. Run with -race; every response must
// stay well-formed and every distance exact for some generation of the
// index (on a line graph with shortcuts being added, any answer in
// [0, n) is plausible — exactness per generation is covered by the
// conformance suite, this test is about safety under concurrency).
func TestConcurrentQueriesUpdatesAndReloads(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	path := writeIndexFile(t, dir, "reload.pllbox", n)

	di, err := pll.BuildDynamic(lineGraph(t, n))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, di, Config{IndexPath: path, CacheSize: 128})
	client := ts.Client()

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := (seed + i) % n
				tt := (seed + 3*i) % n
				resp, err := client.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, s, tt))
				if err != nil {
					report("GET /distance: %v", err)
					return
				}
				var dr distanceResponse
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					report("distance status=%d err=%v", resp.StatusCode, err)
					return
				}
				if dr.Distance < 0 || dr.Distance >= n {
					report("distance(%d,%d) = %d out of range", s, tt, dr.Distance)
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int32(0); i < n-2; i += 2 {
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(updateRequest{Edges: [][2]int32{{i, i + 2}}})
			resp, err := client.Post(ts.URL+"/update", "application/json", &buf)
			if err != nil {
				report("POST /update: %v", err)
				return
			}
			resp.Body.Close()
			// 200 while the dynamic index is serving, 409 after a reload
			// swapped in the static file — both are correct here.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				report("update status=%d", resp.StatusCode)
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := srv.Reload(path); err != nil {
				report("reload: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
