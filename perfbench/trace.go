package main

// Spans recorded from the benchmark's own files around the calls into
// each layer: the client around each HTTP exchange, a wrapper around the
// coordinator's and each replica's handler, and an oracle decorator
// (under ConcurrentOracle) around the label engines. Nothing inside the
// program changes. The layers are joined by the request number the
// client sends as the trace id of an unsampled traceparent; the
// decorator, which sees only the query's arguments, finds its server
// span by the call the request list says that span will make.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pll/internal/trace"
	"pll/pll"
)

type layer uint8

const (
	layerClient       layer = iota // loopback net/http, client side included
	layerCluster                   // internal/cluster coordinator handler
	layerServer                    // internal/server handler (Stack, mux, caches, JSON)
	layerDistance                  // pll Distance over the core merge
	layerDistanceFrom              // pll Batcher over the core batch engine
	layerKNN                       // pll Searcher over internal/hubsearch
	numLayers
)

var layerNames = [numLayers]string{"client", "cluster", "server", "pll.distance", "pll.distance_from", "pll.knn"}

type span struct {
	start, end int64 // ns since the recorder's epoch
	work       int64 // merged label entries, or scanned hub items
	id, parent uint32
	req        uint32 // the request's number in the list, plus one
	layer      layer
}

// recorder keeps the spans of the traced window in memory; they are
// analysed and written out after it.
type recorder struct {
	epoch   time.Time
	on      atomic.Bool
	ids     atomic.Uint32
	spans   []span // indexed by span id - 1
	dropped atomic.Int64
	// clusterOf maps a request to its coordinator span, the parent of
	// the replica spans it causes.
	clusterOf []atomic.Uint32
	// callOf names the oracle call request req makes, if any.
	callOf func(req uint32) (call, bool)
	// active maps each oracle call a running server span will make to
	// that span, so the decorator under it can name its parent.
	mu     sync.Mutex
	active map[call][]spanRef
}

// call identifies an oracle call by its arguments: the pair of a
// Distance, the source of a DistanceFrom or a KNN.
type call struct {
	kind opKind
	s, t int32
}

type spanRef struct{ id, req uint32 }

func newRecorder(requests, maxSpans int, callOf func(uint32) (call, bool)) *recorder {
	return &recorder{
		epoch:     time.Now(),
		spans:     make([]span, maxSpans),
		clusterOf: make([]atomic.Uint32, requests+1),
		callOf:    callOf,
		active:    map[call][]spanRef{},
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// recording is false on a nil recorder, so untraced runs pay one branch.
func (r *recorder) recording() bool { return r != nil && r.on.Load() }

func (r *recorder) begin(l layer, req, parent uint32) span {
	return span{start: r.now(), id: r.ids.Add(1), parent: parent, req: req, layer: l}
}

func (r *recorder) finish(s span, work int64) {
	s.end, s.work = r.now(), work
	if i := int(s.id) - 1; i < len(r.spans) {
		r.spans[i] = s
	} else {
		r.dropped.Add(1)
	}
}

// traceparent renders an unsampled W3C header whose trace id is the
// request number and whose parent is the client's span.
func traceparent(req, spanID uint32) string {
	return fmt.Sprintf("00-%032x-%016x-00", req, spanID)
}

// parseTraceparent recovers the request number and parent span id.
func parseTraceparent(h string) (req, parent uint32, ok bool) {
	tid, sid, _, ok := trace.ParseTraceparent(h)
	if !ok {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(tid[12:]), uint32(binary.BigEndian.Uint64(sid[:])), true
}

// clusterSpans wraps the coordinator's handler.
func (r *recorder) clusterSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.recording() {
			h.ServeHTTP(w, req)
			return
		}
		seq, parent, ok := parseTraceparent(req.Header.Get("traceparent"))
		if !ok || int(seq) >= len(r.clusterOf) {
			h.ServeHTTP(w, req)
			return
		}
		s := r.begin(layerCluster, seq, parent)
		r.clusterOf[seq].Store(s.id)
		h.ServeHTTP(w, req)
		r.finish(s, 0)
	})
}

// serverSpans wraps a replica's handler. Health probes and scrapes carry
// no traceparent and pass untraced.
func (r *recorder) serverSpans(h http.Handler, routed bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.recording() {
			h.ServeHTTP(w, req)
			return
		}
		seq, parent, ok := parseTraceparent(req.Header.Get("traceparent"))
		if !ok || int(seq) >= len(r.clusterOf) {
			h.ServeHTTP(w, req)
			return
		}
		if routed {
			parent = r.clusterOf[seq].Load()
		}
		s := r.begin(layerServer, seq, parent)
		c, calls := r.callOf(seq)
		if calls {
			r.mu.Lock()
			r.active[c] = append(r.active[c], spanRef{s.id, seq})
			r.mu.Unlock()
		}
		h.ServeHTTP(w, req)
		if calls {
			r.mu.Lock()
			refs := r.active[c]
			for i, ref := range refs {
				if ref.id == s.id {
					refs = append(refs[:i], refs[i+1:]...)
					break
				}
			}
			if len(refs) == 0 {
				delete(r.active, c)
			} else {
				r.active[c] = refs
			}
			r.mu.Unlock()
		}
		r.finish(s, 0)
	})
}

// beginChild opens a span for an oracle call under the server span
// that makes it. When two running spans make the same call, either is
// the parent: both belong to requests doing the same work.
func (r *recorder) beginChild(l layer, c call) span {
	r.mu.Lock()
	var parent spanRef
	if refs := r.active[c]; len(refs) > 0 {
		parent = refs[len(refs)-1]
	}
	r.mu.Unlock()
	return r.begin(l, parent.req, parent.id)
}

// tracedOracle is the benchmark's oracle decorator: it times the label
// engines the server reaches through ConcurrentOracle and reads their
// work from a QueryProfile. Every other capability is the embedded
// index's.
type tracedOracle struct {
	*pll.FlatIndex
	rec *recorder
}

func (o *tracedOracle) DistanceProfiled(s, t int32, p *pll.QueryProfile) int64 {
	if !o.rec.recording() {
		return o.FlatIndex.DistanceProfiled(s, t, p)
	}
	sp, prof := o.rec.beginChild(layerDistance, call{opDistance, s, t}), new(pll.QueryProfile)
	d := o.FlatIndex.DistanceProfiled(s, t, prof)
	o.rec.finish(sp, forward(prof, p).MergeEntries)
	return d
}

func (o *tracedOracle) DistanceFromProfiled(s int32, targets []int32, dst []int64, p *pll.QueryProfile) []int64 {
	if !o.rec.recording() {
		return o.FlatIndex.DistanceFromProfiled(s, targets, dst, p)
	}
	sp, prof := o.rec.beginChild(layerDistanceFrom, call{opBatch, s, 0}), new(pll.QueryProfile)
	dst = o.FlatIndex.DistanceFromProfiled(s, targets, dst, prof)
	o.rec.finish(sp, forward(prof, p).MergeEntries)
	return dst
}

func (o *tracedOracle) KNNProfiled(s int32, k int, p *pll.QueryProfile) ([]pll.Neighbor, error) {
	if !o.rec.recording() {
		return o.FlatIndex.KNNProfiled(s, k, p)
	}
	sp, prof := o.rec.beginChild(layerKNN, call{opKNN, s, 0}), new(pll.QueryProfile)
	ns, err := o.FlatIndex.KNNProfiled(s, k, prof)
	o.rec.finish(sp, forward(prof, p).ScanItems)
	return ns, err
}

// forward copies the decorator's own profile into the server's, when
// the server passed one, and returns its counters.
func forward(prof, p *pll.QueryProfile) *trace.ProfileSnapshot {
	s := prof.Snapshot()
	if s.MergeCalls > 0 {
		p.AddMerge(s.MergeEntries, time.Duration(s.MergeNs))
	}
	if s.ScanRuns > 0 || s.ScanItems > 0 {
		p.AddScan(s.ScanRuns, s.ScanItems, time.Duration(s.ScanNs))
	}
	return s
}

// ladder is the per-request decomposition of client latency into the
// self time of each layer, as means over the traced requests and over
// the requests whose latency lies around the median.
type ladder struct {
	requests  int
	all, mid  selfTimes
	midCount  int
	calls     [numLayers]int
	callNs    [numLayers]float64 // mean span duration per call
	callWork  [numLayers]float64 // mean work per call
	spanCount int
}

// selfTimes are mean microseconds per request.
type selfTimes struct {
	client, http, cluster, server, pll float64
}

func (s selfTimes) sum() float64 { return s.http + s.cluster + s.server + s.pll }

// ladder joins the recorded spans by request. A layer's self time is
// its span minus the part its child spans cover: the coordinator minus
// the union of the replica spans it caused, a replica minus its oracle
// spans, the client minus the span of the server it talked to.
func (r *recorder) ladder(routed bool) ladder {
	var l ladder
	n := min(int(r.ids.Load()), len(r.spans))
	reqs := len(r.clusterOf)
	client := make([]int64, reqs)
	front := make([]int64, reqs)
	serverSum := make([]int64, reqs)
	pllSum := make([]int64, reqs)
	intervals := map[uint32][][2]int64{}
	var work [numLayers]int64
	var dur [numLayers]int64
	for _, s := range r.spans[:n] {
		if s.id == 0 || int(s.req) >= reqs {
			continue // never finished, or not a request's span
		}
		l.spanCount++
		d := s.end - s.start
		l.calls[s.layer]++
		dur[s.layer] += d
		work[s.layer] += s.work
		switch s.layer {
		case layerClient:
			client[s.req] = d
		case layerCluster:
			front[s.req] = d
		case layerServer:
			serverSum[s.req] += d
			if routed {
				intervals[s.req] = append(intervals[s.req], [2]int64{s.start, s.end})
			} else {
				front[s.req] = d
			}
		default:
			pllSum[s.req] += d
		}
	}
	for i := range dur {
		if l.calls[i] > 0 {
			l.callNs[i] = float64(dur[i]) / float64(l.calls[i])
			l.callWork[i] = float64(work[i]) / float64(l.calls[i])
		}
	}

	var rows []selfTimes
	for q := range client {
		if client[q] == 0 || front[q] == 0 || serverSum[q] == 0 {
			continue
		}
		var t selfTimes
		t.client = float64(client[q])
		t.http = float64(client[q] - front[q])
		if routed {
			t.cluster = float64(front[q] - union(intervals[uint32(q)]))
		}
		t.server = float64(serverSum[q] - pllSum[q])
		t.pll = float64(pllSum[q])
		rows = append(rows, t)
	}
	l.requests = len(rows)
	sort.Slice(rows, func(i, j int) bool { return rows[i].client < rows[j].client })
	mean := func(rs []selfTimes) selfTimes {
		var m selfTimes
		for _, r := range rs {
			m.client += r.client
			m.http += r.http
			m.cluster += r.cluster
			m.server += r.server
			m.pll += r.pll
		}
		if k := float64(len(rs)) * 1000; k > 0 {
			m = selfTimes{m.client / k, m.http / k, m.cluster / k, m.server / k, m.pll / k}
		}
		return m
	}
	l.all = mean(rows)
	lo, hi := len(rows)*45/100, len(rows)*55/100+1
	if hi > len(rows) {
		hi = len(rows)
	}
	l.mid, l.midCount = mean(rows[lo:hi]), hi-lo
	return l
}

// union is the total length covered by the intervals.
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeSpans writes up to limit recorded spans as tab-separated rows.
func (r *recorder) writeSpans(path string, limit int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tlayer\tstart_ns\tend_ns\twork")
	n := min(int(r.ids.Load()), len(r.spans), limit)
	for _, s := range r.spans[:n] {
		if s.id != 0 {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.req, layerNames[s.layer], s.start, s.end, s.work)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
