package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"pll/internal/cluster"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/server"
	"pll/pll"
)

// stages are the wall times of one set-up, from graph generation to the
// first correct HTTP answer; setup_s is their sum.
type stages struct {
	graph, build, write, open, ready time.Duration
}

func (s stages) total() time.Duration { return s.graph + s.build + s.write + s.open + s.ready }

// deployment is one served index: its replicas, the coordinator in front
// of them when the workload is routed, and the loopback listeners.
type deployment struct {
	front    string // base URL the load clients send to
	replicas []*replica
	coord    *cluster.Coordinator
	coordURL string
	dyn      *pll.DynamicIndex // the served dynamic index, nil for static workloads
	graph    *graph.Graph

	admin   *http.Client // set-up probe and /stats scrapes; not a load client
	servers []*http.Server
	serving sync.WaitGroup
}

type replica struct {
	url  string
	srv  *server.Server
	flat *pll.FlatIndex // nil when the replica serves the dynamic index
}

// oracle is the index answers are computed from in-process: replica 0's
// mapping, or the dynamic index (only safe to read while nothing writes).
func (d *deployment) oracle() pll.Oracle {
	if d.dyn != nil {
		return d.dyn
	}
	return d.replicas[0].flat
}

// setup builds and serves the index the way an operator deploys it:
// generate the graph, build, write the flat container, open it once per
// replica, start the servers (and coordinator), and wait for the first
// correct answer over HTTP. prepare runs between opening and serving and
// is not timed; rec, when non-nil, installs the span wrappers.
func setup(w *workload, path string, rec *recorder, prepare func(*deployment) error) (d *deployment, st stages, err error) {
	d = &deployment{admin: &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	t := time.Now()
	lap := func(dst *time.Duration) {
		now := time.Now()
		*dst = now.Sub(t)
		t = now
	}

	d.graph = gen.BarabasiAlbert(graphN, graphM, graphSeed)
	g, err := pll.NewGraph(d.graph.NumVertices(), d.graph.Edges())
	if err != nil {
		return d, st, fmt.Errorf("graph: %w", err)
	}
	lap(&st.graph)

	if w.dynamic {
		if d.dyn, err = pll.BuildDynamic(g); err != nil {
			return d, st, fmt.Errorf("build: %w", err)
		}
		lap(&st.build)
		d.replicas = []*replica{{}}
	} else {
		ix, err := pll.Build(g, pll.WithBitParallel(bitParallel))
		if err != nil {
			return d, st, fmt.Errorf("build: %w", err)
		}
		lap(&st.build)
		if err := pll.WriteFlatFile(path, ix, pll.FlatSearch()); err != nil {
			return d, st, fmt.Errorf("write: %w", err)
		}
		lap(&st.write)
		n := 1
		if w.routed {
			n = 2
		}
		for i := 0; i < n; i++ {
			fi, err := pll.Open(path)
			if err != nil {
				return d, st, fmt.Errorf("open: %w", err)
			}
			d.replicas = append(d.replicas, &replica{flat: fi})
		}
		lap(&st.open)
	}

	if prepare != nil {
		if err := prepare(d); err != nil {
			return d, st, err
		}
		t = time.Now()
	}

	urls := make([]string, len(d.replicas))
	for i, r := range d.replicas {
		var o pll.Oracle = d.dyn
		if r.flat != nil {
			o = r.flat
			if rec != nil {
				o = &tracedOracle{FlatIndex: r.flat, rec: rec}
			}
		}
		r.srv = server.New(pll.NewConcurrentOracle(o), server.Config{CacheSize: cacheSize})
		h := r.srv.Handler()
		if rec != nil {
			h = rec.serverSpans(h, w.routed)
		}
		if r.url, err = d.serve(h); err != nil {
			return d, st, err
		}
		urls[i] = r.url
	}
	d.front = urls[0]
	if w.routed {
		if d.coord, err = cluster.New(cluster.Config{Backends: urls}); err != nil {
			return d, st, err
		}
		h := d.coord.Handler()
		if rec != nil {
			h = rec.clusterSpans(h)
		}
		if d.coordURL, err = d.serve(h); err != nil {
			return d, st, err
		}
		d.front = d.coordURL
	}
	if err := d.firstAnswer(); err != nil {
		return d, st, err
	}
	lap(&st.ready)
	return d, st, nil
}

// serve starts an HTTP server for h on a fresh loopback port.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	d.servers = append(d.servers, hs)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// firstAnswer asks the front for one distance and checks it against the
// in-process index.
func (d *deployment) firstAnswer() error {
	const s, t = 0, graphN - 1
	resp, err := d.admin.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", d.front, s, t))
	if err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	defer resp.Body.Close()
	var got struct {
		Distance int64 `json:"distance"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first answer: status %d, %v", resp.StatusCode, err)
	}
	if want := d.oracle().Distance(s, t); got.Distance != want {
		return fmt.Errorf("first answer: distance(%d,%d) = %d, want %d", s, t, got.Distance, want)
	}
	return nil
}

// stopServing shuts the listeners down and returns once every handler,
// and so every span it records, has finished. The indexes stay open for
// in-process use.
func (d *deployment) stopServing(ctx context.Context) {
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].Shutdown(ctx) //nolint:errcheck // a timeout leaves Drain in close to wait
	}
	d.serving.Wait()
}

// close stops the coordinator, the servers and their goroutines, then
// unmaps the indexes once no request can read them.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.stopServing(ctx)
	if d.coord != nil {
		d.coord.Close()
	}
	for _, r := range d.replicas {
		if r.srv != nil && r.srv.Drain(ctx) != nil {
			continue // a reader is still mid-request: leave the mapping
		}
		if r.flat != nil {
			r.flat.Close() //nolint:errcheck // nothing to do for a failed unmap
		}
	}
	d.admin.CloseIdleConnections()
}

// get fetches url with the admin client and returns the body of a 200.
func (d *deployment) get(url string) ([]byte, error) {
	resp, err := d.admin.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

// getJSON fetches url with the admin client and decodes the body into v.
func (d *deployment) getJSON(url string, v any) error {
	body, err := d.get(url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
