// Evolving network (paper §8): social networks gain edges continuously,
// and rebuilding a distance index from scratch on every change is
// wasteful. This example maintains an exact oracle under a stream of
// edge insertions using resumed pruned BFSs (pll.DynamicIndex) and
// verifies a sample of answers against fresh BFS truth as it goes.
//
// Run with:
//
//	go run ./examples/evolving
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
	"pll/pll"
)

func main() {
	// Day 0: a 10k-user social network.
	raw := gen.BarabasiAlbert(10_000, 4, 21)
	g, err := pll.NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	di, err := pll.BuildDynamic(g, pll.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial network: %d users, %d friendships; indexed in %v (avg label %.1f)\n",
		g.NumVertices(), g.NumEdges(), time.Since(start), di.Stats().AvgLabelSize)

	// A stream of new friendships arrives. New friendships in social
	// networks skew preferential (popular users gain more), which we
	// approximate by endpoint sampling from the edge multiset.
	r := rng.New(77)
	edges := raw.Edges()
	endpoints := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		endpoints = append(endpoints, e.U, e.V)
	}

	const streamLen = 2000
	var inserted int
	var totalUpdates int
	begin := time.Now()
	for i := 0; i < streamLen; i++ {
		a := endpoints[r.Intn(len(endpoints))]
		b := r.Int31n(int32(g.NumVertices()))
		if a == b {
			continue
		}
		upd, err := di.InsertEdge(a, b)
		if err != nil {
			log.Fatal(err)
		}
		if upd > 0 {
			edges = append(edges, pll.Edge{U: a, V: b})
			endpoints = append(endpoints, a, b)
			inserted++
			totalUpdates += upd
		}
	}
	elapsed := time.Since(begin)
	fmt.Printf("streamed %d insertions in %v (%.1f us each, %.1f label updates each)\n",
		inserted, elapsed,
		float64(elapsed.Microseconds())/float64(inserted),
		float64(totalUpdates)/float64(inserted))
	fmt.Printf("label size after stream: %.1f\n", di.Stats().AvgLabelSize)

	// Spot-check exactness against BFS on the final graph.
	final, err := graph.NewGraph(g.NumVertices(), edges)
	if err != nil {
		log.Fatal(err)
	}
	mismatches := 0
	for i := 0; i < 500; i++ {
		s := r.Int31n(int32(g.NumVertices()))
		t := r.Int31n(int32(g.NumVertices()))
		want := int64(bfs.Distance(final, s, t))
		got := di.Distance(s, t)
		if want == int64(bfs.Unreachable) {
			want = pll.Unreachable
		}
		if got != want {
			mismatches++
		}
	}
	fmt.Printf("verification: 500 sampled queries, %d mismatches\n", mismatches)

	// Nightly snapshot: freeze the evolving oracle and ship it in the
	// self-describing container format; any serving process loads it
	// back with pll.LoadFile, no variant knowledge needed.
	snap := filepath.Join(os.TempDir(), "evolving-snapshot.pllbox")
	if err := pll.WriteFlatFile(snap, di); err != nil {
		log.Fatal(err)
	}
	o, err := pll.LoadFile(snap)
	if err != nil {
		log.Fatal(err)
	}
	st := o.Stats()
	fmt.Printf("snapshot: %s -> %s variant, %d label entries; d(0,1)=%d\n",
		snap, st.Variant, st.TotalLabelEntries, o.Distance(0, 1))
	os.Remove(snap)
}
