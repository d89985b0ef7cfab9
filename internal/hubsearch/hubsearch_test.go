package hubsearch

import (
	"reflect"
	"sort"
	"testing"
)

// buildToy inverts a tiny hand-written label family over 5 vertices:
// L(v) lists (hub, dist) pairs forming a valid 2-hop cover of the path
// graph 0-1-2-3-4 under the identity order (hub 0 = vertex 0, etc.).
func buildToy() (*Inverted, [][]Run) {
	labels := [][]struct {
		h int32
		d uint32
	}{
		{{0, 0}},                                 // L(0)
		{{0, 1}, {1, 0}},                         // L(1)
		{{0, 2}, {1, 1}, {2, 0}},                 // L(2)
		{{0, 3}, {1, 2}, {2, 1}, {3, 0}},         // L(3)
		{{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}, // L(4)
	}
	inv := Build(5, 0, nil, nil, func(add func(run, vertex int32, dist uint32)) {
		for v, lab := range labels {
			for _, e := range lab {
				add(e.h, int32(v), e.d)
			}
		}
	})
	src := make([][]Run, len(labels))
	for v, lab := range labels {
		for _, e := range lab {
			src[v] = append(src[v], Run{ID: e.h, Base: int64(e.d)})
		}
	}
	return inv, src
}

func TestBuildLayout(t *testing.T) {
	inv, _ := buildToy()
	if err := inv.Validate(true); err != nil {
		t.Fatalf("built index fails validation: %v", err)
	}
	if inv.Entries() != 15 {
		t.Fatalf("entries = %d, want 15", inv.Entries())
	}
	// Run 0 holds every vertex, sorted by distance then vertex.
	run0v := inv.Vertex[inv.Off[0]:inv.Off[1]]
	run0d := inv.Dist[inv.Off[0]:inv.Off[1]]
	if !reflect.DeepEqual(run0v, []int32{0, 1, 2, 3, 4}) ||
		!reflect.DeepEqual(run0d, []uint32{0, 1, 2, 3, 4}) {
		t.Fatalf("run 0 = %v / %v", run0v, run0d)
	}
	// Run sizes follow the path-graph cover: hub 0 carries everything,
	// each later hub one fewer vertex.
	for h, want := range []int64{5, 4, 3, 2, 1} {
		if sz := inv.Off[h+1] - inv.Off[h]; sz != want {
			t.Fatalf("run %d holds %d entries, want %d", h, sz, want)
		}
	}
}

func TestKNNAndRangeToy(t *testing.T) {
	inv, src := buildToy()
	sc := NewScratch(5)
	// From vertex 2 on the path 0-1-2-3-4 the exact distances are
	// {0:2, 1:1, 3:1, 4:2}.
	res := inv.KNN(src[2], 2, nil, nil, 2, sc)
	sort.Slice(res, func(i, j int) bool {
		if res[i].Dist != res[j].Dist {
			return res[i].Dist < res[j].Dist
		}
		return res[i].Rank < res[j].Rank
	})
	want := []Result{{Rank: 1, Dist: 1}, {Rank: 3, Dist: 1}}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("KNN(2, 2) = %v, want %v", res, want)
	}
	res = inv.Range(src[2], 2, nil, nil, 1, sc)
	sort.Slice(res, func(i, j int) bool { return res[i].Rank < res[j].Rank })
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("Range(2, 1) = %v, want %v", res, want)
	}
	if got := inv.KNN(src[0], 0, nil, nil, 10, sc); len(got) != 4 {
		t.Fatalf("KNN(0, 10) returned %d results, want 4", len(got))
	}
	if got := inv.KNN(src[0], 0, nil, nil, 0, sc); got != nil {
		t.Fatalf("KNN with k=0 = %v, want nil", got)
	}
	if got := inv.Range(src[0], 0, nil, nil, -1, sc); got != nil {
		t.Fatalf("Range with negative radius = %v, want nil", got)
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := func(f func(*Inverted)) error {
		inv, _ := buildToy()
		f(inv)
		return inv.Validate(true)
	}
	if err := mutate(func(inv *Inverted) { inv.Off = inv.Off[:3] }); err == nil {
		t.Fatal("short offsets accepted")
	}
	if err := mutate(func(inv *Inverted) { inv.Off[5] = 3 }); err == nil {
		t.Fatal("non-spanning offsets accepted")
	}
	if err := mutate(func(inv *Inverted) { inv.Off[2] = inv.Off[3] + 1 }); err == nil {
		t.Fatal("decreasing offsets accepted")
	}
	if err := mutate(func(inv *Inverted) { inv.Vertex[0] = 99 }); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if err := mutate(func(inv *Inverted) { inv.Dist[0], inv.Dist[4] = 9, 0 }); err == nil {
		t.Fatal("unsorted run accepted")
	}
	if err := mutate(func(inv *Inverted) { inv.Dist = inv.Dist[:5] }); err == nil {
		t.Fatal("vertex/dist length mismatch accepted")
	}
}

// TestBitPostings pins the S^{-1} postings of a hand-made bit-parallel
// run: per neighbour bit, the run-relative positions of the entries
// whose mask has the bit, in run order. An out-of-range vertex (a
// corrupt mapped section) is skipped, not indexed.
func TestBitPostings(t *testing.T) {
	// Four vertices, one root (run 4) at distances 1, 1, 2, 2.
	bps1 := []uint64{0b01, 0b10, 0b11, 0}
	build := func() *Inverted {
		return Build(4, 1, bps1, make([]uint64, 4), func(add func(run, vertex int32, dist uint32)) {
			for v, d := range []uint32{1, 1, 2, 2} {
				add(4, int32(v), d)
			}
		})
	}
	lists := func(inv *Inverted) [][]int32 {
		p := inv.bitPostings()
		return [][]int32{p.pos[p.off[0]:p.off[1]], p.pos[p.off[1]:p.off[2]], p.pos[p.off[2]:p.off[64]]}
	}
	if got, want := lists(build()), [][]int32{{0, 2}, {1, 2}, {}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("postings of bits 0, 1, 2-63 = %v, want %v", got, want)
	}
	inv := build()
	inv.Vertex[inv.Off[4]] = 99
	if got, want := lists(inv), [][]int32{{2}, {1, 2}, {}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("postings with an out-of-range vertex = %v, want %v", got, want)
	}
}
