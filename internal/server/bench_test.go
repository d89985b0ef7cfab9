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
