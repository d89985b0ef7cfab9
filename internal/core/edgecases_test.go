package core

import (
	"testing"

	"pll/internal/bfs"
	"pll/internal/gen"
)

func TestLabelOfBPConsumedVertexIsSmall(t *testing.T) {
	// Vertices consumed as bit-parallel roots or neighbors skip their
	// own pruned BFS; their normal labels exist only from later roots.
	g := gen.Star(50)
	ix := buildOrFail(t, g, Options{NumBitParallel: 1, CustomOrder: starOrder(50)})
	// The hub (rank 0) and its first 49... all leaves are consumed by
	// the single BP root's neighbor set (up to 64), so normal labels
	// should be nearly empty.
	st := ix.ComputeStats()
	if st.TotalLabelEntries > 5 {
		t.Fatalf("BP should have consumed the star; %d normal entries remain", st.TotalLabelEntries)
	}
}

func TestQueryPathWhenHubIsEndpoint(t *testing.T) {
	// On a star ordered hub-first, the hub is the best hub for every
	// pair; paths through it must still terminate correctly when one
	// endpoint *is* the hub.
	g := gen.Star(10)
	ix := buildOrFail(t, g, Options{StorePaths: true, CustomOrder: starOrder(10)})
	p, _, err := ix.Path(0, 7)
	if err != nil || len(p) != 2 || p[0] != 0 || p[1] != 7 {
		t.Fatalf("hub-endpoint path = %v, %v", p, err)
	}
	p, _, err = ix.Path(3, 0)
	if err != nil || len(p) != 2 {
		t.Fatalf("endpoint-hub path = %v, %v", p, err)
	}
}

func TestQueryPathAdjacent(t *testing.T) {
	g := gen.Path(5)
	ix := buildOrFail(t, g, Options{StorePaths: true})
	p, _, err := ix.Path(2, 3)
	if err != nil || len(p) != 2 {
		t.Fatalf("adjacent path = %v, %v", p, err)
	}
}

func TestQueryAfterManyMixedOperations(t *testing.T) {
	// Long-haul sanity: build, query, serialize, reload, query again,
	// on a moderately sized BA graph with all features on.
	g := gen.BarabasiAlbert(600, 3, 99)
	ix := buildOrFail(t, g, Options{NumBitParallel: 8, Workers: 4, Seed: 9})
	truth := bfs.AllDistances(g, 42)
	for v := int32(0); v < 600; v += 11 {
		want := int(truth[v])
		if truth[v] == bfs.Unreachable {
			want = Unreachable
		}
		if got := ix.Query(42, v); got != want {
			t.Fatalf("Query(42,%d) = %d, want %d", v, got, want)
		}
	}
	if err := ix.Verify(g, VerifyOptions{SampledPairs: 200, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}
