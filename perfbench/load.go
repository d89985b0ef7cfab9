package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// bench is one run: the workload, its request list and expected
// answers, the deployment serving it, and the load clients.
type bench struct {
	w       *workload
	seed    uint64
	q       *requests
	ans     *answers
	d       *deployment
	rec     *recorder // nil unless the run is traced
	clients []*client
	dials   atomic.Int64 // connections the load clients opened
}

// client is one closed-loop caller with its own keep-alive connection.
// It speaks HTTP/1.1 with net/http's own codec (Request.Write,
// ReadResponse) from its one goroutine, so the client adds no goroutine
// hand-offs of its own to the path being measured.
type client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	buf     bytes.Buffer
	body    []byte
	targets []int32
	lat     []time.Duration
	n, bad  int64 // requests sent and failed in the current window
}

// newClients makes one client per CPU for each server tier a request
// passes through. The clients and every tier share this process's CPUs,
// so a routed request (coordinator, then replica) gets half as many
// callers: with one per CPU the runtime handed goroutines between CPUs
// at every hop, about 1% of routed requests stalled ~4 ms in those
// hand-offs on a two-CPU host, and the p99 fell on either side of that
// cliff from run to run.
func (b *bench) newClients() {
	n := runtime.NumCPU()
	if b.w.routed {
		n /= 2
	}
	for i := 0; i < max(1, n); i++ {
		b.clients = append(b.clients, &client{})
	}
}

func (b *bench) closeClients() {
	for _, c := range b.clients {
		c.close()
	}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// roundTrip sends req on the client's connection, dialling (and
// counting the dial) when it has none, and reads the whole answer into
// c.buf. Any failure drops the connection.
func (b *bench) roundTrip(c *client, req *http.Request) (int, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", req.URL.Host)
		if err != nil {
			return 0, err
		}
		b.dials.Add(1)
		c.conn, c.br, c.bw = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	status, keep, err := c.exchange(req)
	if err != nil || !keep {
		c.close()
	}
	return status, err
}

func (c *client) exchange(req *http.Request) (status int, keep bool, err error) {
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, false, err
	}
	if err := req.Write(c.bw); err != nil {
		return 0, false, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, false, err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		return 0, false, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, !resp.Close, err
}

// target renders op i as a method, a path with its query, and a body.
func (q *requests) target(i int, scratch *[]int32, body []byte) (string, string, []byte) {
	itoa := func(v int32) string { return strconv.Itoa(int(v)) }
	switch o := q.ops[i]; o.kind {
	case opDistance:
		p := q.pairs[o.ref]
		return http.MethodGet, "/distance?s=" + itoa(p[0]) + "&t=" + itoa(p[1]), nil
	case opKNN:
		return http.MethodGet, "/knn?s=" + itoa(q.sources[o.ref]) + "&k=" + strconv.Itoa(knnK), nil
	case opBatch:
		*scratch = q.batchTargets(o.ref, *scratch)
		body = strconv.AppendInt(append(body[:0], `{"source":`...), int64(q.sources[o.ref]), 10)
		body = append(body, `,"targets":[`...)
		for j, t := range *scratch {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendInt(body, int64(t), 10)
		}
		return http.MethodPost, "/batch", append(body, "]}"...)
	default:
		e := q.edges[o.ref]
		body = strconv.AppendInt(append(body[:0], `{"edges":[[`...), int64(e[0]), 10)
		body = strconv.AppendInt(append(body, ','), int64(e[1]), 10)
		return http.MethodPost, "/update", append(body, "]]}"...)
	}
}

// send runs op i against the front and leaves the answer in c.buf. The
// client span covers the whole call, as the latency drive records does.
func (b *bench) send(c *client, i int) (int, error) {
	seq := uint32(i + 1)
	spanID := seq
	if b.rec.recording() {
		sp := b.rec.begin(layerClient, seq, 0)
		spanID = sp.id
		defer func() { b.rec.finish(sp, 0) }()
	}
	method, target, body := b.q.target(i, &c.targets, c.body)
	var rd io.Reader
	if body != nil {
		c.body, rd = body, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.d.front+target, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("traceparent", traceparent(seq, spanID))
	return b.roundTrip(c, req)
}

// drive is one client's closed loop: take the next op, send it, wait
// for the answer, check it, until the list or the time runs out.
func (b *bench) drive(c *client, cursor *atomic.Int64, to int, deadline time.Time) {
	for time.Now().Before(deadline) {
		i := int(cursor.Add(1) - 1)
		if i >= to {
			return
		}
		c.n++
		sent := time.Now()
		status, err := b.send(c, i)
		done := time.Now()
		if err != nil || status != http.StatusOK || !b.check(i, c.buf.Bytes()) {
			c.bad++
			switch {
			case err != nil:
				b.ans.wrong("op %d: %v", i, err)
			case status != http.StatusOK:
				b.ans.wrong("op %d: status %d: %s", i, status, c.buf.Bytes())
			}
			continue
		}
		c.lat = append(c.lat, done.Sub(sent))
	}
}

// windowResult is what one replay of ops[from:to] measured.
type windowResult struct {
	from, to          int // ops replayed
	elapsed           time.Duration
	lat               []time.Duration // successful requests, sorted
	attempted, failed int64
	cpu               time.Duration // process user+sys
	gcCycles          uint32
	gcPause           time.Duration
	stats             counters // /stats deltas
	indexAfter        int64    // replica 0's index_bytes after the window
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size (VmHWM), so peakRSS covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the peak resident set size in bytes since resetPeakRSS.
func peakRSS() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			return v * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// window replays ops[from:to] in a closed loop from every client for at
// most dur, between a garbage collection and /stats scrapes.
func (b *bench) window(from, to int, dur time.Duration) (windowResult, error) {
	res := windowResult{from: from}
	runtime.GC()
	before, err := b.d.scrape()
	if err != nil {
		return res, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	var cursor atomic.Int64
	cursor.Store(int64(from))
	var wg sync.WaitGroup
	for _, c := range b.clients {
		c.lat, c.n, c.bad = c.lat[:0], 0, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.drive(c, &cursor, to, start.Add(dur))
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	res.to = min(int(cursor.Load()), to)
	for _, c := range b.clients {
		res.lat = append(res.lat, c.lat...)
		res.attempted += c.n
		res.failed += c.bad
	}
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	after, err := b.d.scrape()
	if err != nil {
		return res, err
	}
	res.stats, res.indexAfter = after.since(before), after.indexBytes
	return res, nil
}

// ops is the number of requests answered correctly.
func (r windowResult) ops() int64 { return r.attempted - r.failed }

func (r windowResult) throughput() float64 { return float64(r.ops()) / r.elapsed.Seconds() }

func (r windowResult) cpuPerOpUs() float64 { return float64(r.cpu) / 1e3 / float64(max(r.ops(), 1)) }

// percentileUs is the nearest-rank percentile of the latencies, in µs.
func (r windowResult) percentileUs(p float64) float64 {
	if len(r.lat) == 0 {
		return 0
	}
	i := int(float64(len(r.lat))*p+0.999999) - 1
	return float64(r.lat[max(0, min(i, len(r.lat)-1))]) / 1e3
}

func (r windowResult) perKop(v float64) float64 { return v * 1000 / float64(max(r.ops(), 1)) }
