package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"pll/pll"
)

// goldenGraph is the fixed 12-vertex graph the golden bodies were
// recorded on: a path 0..10 with three chords, and vertex 11 isolated
// so unreachable answers appear too.
func goldenGraph(t *testing.T) *pll.Graph {
	t.Helper()
	edges := []pll.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
		{U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 8}, {U: 8, V: 9}, {U: 9, V: 10},
		{U: 0, V: 5}, {U: 2, V: 7}, {U: 4, V: 9},
	}
	g, err := pll.NewGraph(12, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestResponseBytesGolden pins every replica response body, success
// and error, byte for byte. The coordinator suites compare the two
// tiers with each other, so a change both tiers share (a field
// declared out of order, a reworded message) passes them; this table
// is what catches it. The requests run in order: the second /distance
// is the cache hit of the first.
func TestResponseBytesGolden(t *testing.T) {
	ix, err := pll.Build(goldenGraph(t), pll.WithPaths(), pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ix, Config{CacheSize: 64})
	di, err := pll.BuildDynamic(goldenGraph(t), pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	_, dts := newTestServer(t, di, Config{CacheSize: 64})

	for _, c := range []struct {
		name    string
		dynamic bool
		method  string
		path    string
		body    string
		status  int
		want    string
	}{
		{"healthz", false, "GET", "/healthz", ``, 200, `{"checksum":"d001f0aec89f75ff","generation":0,"status":"ok","variant":"undirected","vertices":12}`},
		{"distance-miss", false, "GET", "/distance?s=0&t=8", ``, 200, `{"s":0,"t":8,"distance":4,"reachable":true}`},
		{"distance-hit", false, "GET", "/distance?s=0&t=8", ``, 200, `{"s":0,"t":8,"distance":4,"reachable":true,"cached":true}`},
		{"distance-unreachable", false, "GET", "/distance?s=3&t=11", ``, 200, `{"s":3,"t":11,"distance":-1,"reachable":false}`},
		{"distance-bad-vertex", false, "GET", "/distance?s=0&t=99", ``, 400, `{"error":"pll: vertex 99 out of range [0,12)"}`},
		{"path", false, "GET", "/path?s=1&t=8", ``, 200, `{"hops":3,"path":[1,2,7,8],"reachable":true,"s":1,"t":8}`},
		{"path-missing-t", false, "GET", "/path?s=1", ``, 400, `{"error":"missing query parameter \"t\""}`},
		{"batch-pairs", false, "POST", "/batch", `{"pairs":[[0,8],[3,3],[0,11],[10,1]]}`, 200, `{"count":4,"distances":[4,0,-1,5]}`},
		{"batch-source", false, "POST", "/batch", `{"source":0,"targets":[1,8,11,10]}`, 200, `{"count":4,"distances":[1,4,-1,4]}`},
		{"batch-empty", false, "POST", "/batch", `{}`, 400, `{"error":"batch body needs either \"pairs\" or \"source\"+\"targets\""}`},
		{"knn", false, "GET", "/knn?s=0&k=4", ``, 200, `{"count":4,"k":4,"neighbors":[{"vertex":1,"distance":1},{"vertex":5,"distance":1},{"vertex":2,"distance":2},{"vertex":4,"distance":2}],"s":0}`},
		{"knn-bad-k", false, "GET", "/knn?s=0&k=0", ``, 400, `{"error":"k=0 outside [1,4096]"}`},
		{"range", false, "GET", "/range?s=3&r=2", ``, 200, `{"count":6,"neighbors":[{"vertex":2,"distance":1},{"vertex":4,"distance":1},{"vertex":1,"distance":2},{"vertex":5,"distance":2},{"vertex":7,"distance":2},{"vertex":9,"distance":2}],"radius":2,"s":3,"total":6,"total_exact":true,"truncated":false}`},
		{"range-truncated", false, "GET", "/range?s=3&r=3&limit=2", ``, 200, `{"count":2,"neighbors":[{"vertex":2,"distance":1},{"vertex":4,"distance":1}],"radius":3,"s":3,"total":3,"total_exact":false,"truncated":true}`},
		{"range-negative", false, "GET", "/range?s=3&r=-1", ``, 400, `{"error":"r=-1 must be non-negative"}`},
		{"nearest", false, "POST", "/nearest", `{"source":0,"set":[3,8,10,11],"k":2}`, 200, `{"count":2,"k":2,"neighbors":[{"vertex":3,"distance":3},{"vertex":8,"distance":4}],"set_size":4,"source":0}`},
		{"nearest-empty-set", false, "POST", "/nearest", `{"source":0,"set":[],"k":2}`, 400, `{"error":"nearest body needs a non-empty \"set\""}`},
		{"query", false, "POST", "/query", `{"where":{"near":{"source":0,"max_dist":2}},"k":5}`, 200, `{"count":5,"matches":[{"vertex":0,"score":0,"terms":[0]},{"vertex":1,"score":1,"terms":[1]},{"vertex":5,"score":1,"terms":[1]},{"vertex":2,"score":2,"terms":[2]},{"vertex":4,"score":2,"terms":[2]}],"total":6,"total_exact":true,"truncated":false}`},
		{"query-ranked", false, "POST", "/query", `{"where":{"and":[{"near":{"source":0,"max_dist":3}},{"near":{"source":8,"max_dist":3}}]},"rank":{"by":"max","terms":[{"source":0},{"source":8,"weight":2}]},"k":3}`, 200, `{"count":3,"matches":[{"vertex":7,"score":3,"terms":[3,1]},{"vertex":9,"score":3,"terms":[3,1]},{"vertex":2,"score":4,"terms":[2,2]}],"total":8,"total_exact":true,"truncated":false}`},
		{"query-invalid", false, "POST", "/query", `{}`, 400, `{"error":"core: composite request has no where-clause"}`},
		{"update", true, "POST", "/update", `{"edges":[[0,10]]}`, 200, `{"inserted":1,"label_delta":5}`},
		{"update-out-of-range", true, "POST", "/update", `{"edges":[[0,99]]}`, 400, `{"error":"edge {0,99} out of range [0,12)"}`},
		{"update-static", false, "POST", "/update", `{"edges":[[0,10]]}`, 409, `{"error":"served index is the undirected variant; only dynamic indexes accept updates"}`},
		{"reload-no-path", false, "POST", "/reload", ``, 400, `{"error":"no path in request and the server was started without an index file"}`},
	} {
		base := ts.URL
		if c.dynamic {
			base = dts.URL
		}
		var rd io.Reader
		if c.body != "" {
			rd = strings.NewReader(c.body)
		}
		req, err := http.NewRequest(c.method, base+c.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status || string(got) != c.want+"\n" {
			t.Errorf("%s: %s %s\n got %d %q\nwant %d %q", c.name, c.method, c.path, resp.StatusCode, got, c.status, c.want+"\n")
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
	}
}
