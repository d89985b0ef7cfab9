package cluster

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"pll/internal/gen"
	"pll/internal/rng"
	"pll/internal/server"
	"pll/pll"
)

// BenchmarkBatchRouted times one 1,024-target /batch over loopback HTTP:
// straight to a real replica (direct), and through a coordinator that
// splits it into one 512-target chunk per replica over two real
// replicas (routed). routed − direct is the coordinator's share: its
// decode, chunk bodies, second exchanges and merge, less the halved
// replica work. The index has perfbench's shape: BA n=25,000, m=5, 16
// bit-parallel roots. Allocations count every goroutine in the process.
func BenchmarkBatchRouted(b *testing.B) {
	const n = 25000
	g, err := pll.NewGraph(n, gen.BarabasiAlbert(n, 5, 1).Edges())
	if err != nil {
		b.Fatal(err)
	}
	ix, err := pll.Build(g, pll.WithBitParallel(16))
	if err != nil {
		b.Fatal(err)
	}
	urls, _ := startReplicas(b, ix, 2, server.Config{})
	_, coord := startCoordinator(b, urls, func(cfg *Config) { cfg.HealthInterval = time.Hour })
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

	for _, bc := range []struct{ name, url string }{
		{"direct", urls[0] + "/batch"},
		{"routed", coord.URL + "/batch"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				resp, err := http.Post(bc.url, "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, read error %v", resp.StatusCode, err)
				}
			}
		})
	}
}
