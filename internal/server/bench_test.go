package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"pll/internal/gen"
	"pll/internal/rng"
	"pll/pll"
)

// BenchmarkBatchHandler times one 1,024-target /batch through the
// replica's whole handler, middleware stack included, without a
// network: decode, validation, DistanceFrom and the answer. The index
// has perfbench's shape: BA n=25,000, m=5, 16 bit-parallel roots.
func BenchmarkBatchHandler(b *testing.B) {
	const n = 25000
	g, err := pll.NewGraph(n, gen.BarabasiAlbert(n, 5, 1).Edges())
	if err != nil {
		b.Fatal(err)
	}
	ix, err := pll.Build(g, pll.WithBitParallel(16))
	if err != nil {
		b.Fatal(err)
	}
	h := New(pll.NewConcurrentOracle(ix), Config{}).Handler()
	r := rng.New(7)
	body := strconv.AppendInt([]byte(`{"source":`), int64(r.Int31n(n)), 10)
	body = append(body, `,"targets":[`...)
	for i := 0; i < 1024; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(r.Int31n(n)), 10)
	}
	body = append(body, "]}"...)
	b.ReportAllocs()
	for b.Loop() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkUpdateHandler times one single-edge POST /update through the
// replica's whole handler, middleware stack included, without a
// network: decode, the insert, both cache purges and the answer. The
// index is perfbench's: a BuildDynamic index of BA n=25,000, m=5 (its
// graph seed), served with its 65,536-entry caches. Each update inserts
// a fresh non-edge, so the labels grow with every one and the time per
// update with -benchtime: compare runs only at the same count (e.g.
// -benchtime 2000x).
func BenchmarkUpdateHandler(b *testing.B) {
	const n = 25000
	g, err := pll.NewGraph(n, gen.BarabasiAlbert(n, 5, 20130622).Edges())
	if err != nil {
		b.Fatal(err)
	}
	di, err := pll.BuildDynamic(g)
	if err != nil {
		b.Fatal(err)
	}
	h := New(pll.NewConcurrentOracle(di), Config{CacheSize: 65536}).Handler()
	r := rng.New(7)
	var body []byte
	b.ReportAllocs()
	for b.Loop() {
		u, v := r.Int31n(n), r.Int31n(n)
		for u == v || di.Distance(u, v) == 1 {
			u, v = r.Int31n(n), r.Int31n(n)
		}
		body = strconv.AppendInt(append(body[:0], `{"edges":[[`...), int64(u), 10)
		body = strconv.AppendInt(append(body, ','), int64(v), 10)
		body = append(body, "]]}"...)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
