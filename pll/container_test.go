package pll_test

// Container-format tests: every variant's WriteTo must round-trip
// through the single pll.Load entry point, the header must be honest
// about the variant, and malformed headers must be rejected with
// ErrBadIndexFile rather than a panic or a misparse.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pll/internal/gen"
	"pll/internal/rng"
	"pll/pll"
)

// testGraph is a small scale-free stand-in shared by the round-trip
// tests; deterministic seed so failures reproduce.
func testGraph(t *testing.T) *pll.Graph {
	t.Helper()
	raw := gen.BarabasiAlbert(300, 3, 42)
	g, err := pll.NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// roundTrip serializes o, loads it back through the unified Load, and
// checks the loaded oracle agrees with the original on random pairs.
func roundTrip(t *testing.T, o pll.Oracle, wantVariant pll.Variant) pll.Oracle {
	t.Helper()
	var buf bytes.Buffer
	n, err := o.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := pll.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.NumVertices() != o.NumVertices() {
		t.Fatalf("loaded n=%d, want %d", loaded.NumVertices(), o.NumVertices())
	}
	r := rng.New(7)
	nv := int32(o.NumVertices())
	for i := 0; i < 200; i++ {
		s, u := r.Int31n(nv), r.Int31n(nv)
		if got, want := loaded.Distance(s, u), o.Distance(s, u); got != want {
			t.Fatalf("distance mismatch after round trip at (%d,%d): %d vs %d", s, u, got, want)
		}
	}
	if v := loaded.Stats().Variant; wantVariant != 0 && v != wantVariant {
		t.Fatalf("loaded variant = %s, want %s", v, wantVariant)
	}
	return loaded
}

func TestContainerRoundTripPlain(t *testing.T) {
	ix, err := pll.BuildIndex(testGraph(t), pll.WithBitParallel(4), pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, ix, pll.VariantUndirected)
}

func TestContainerRoundTripPaths(t *testing.T) {
	ix, err := pll.BuildIndex(testGraph(t), pll.WithPaths(), pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, ix, pll.VariantUndirected)
	if !loaded.Stats().HasParentPointers {
		t.Fatal("parent pointers lost in round trip")
	}
	p, err := loaded.Path(0, int32(ix.NumVertices()-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p) == 0 {
		t.Fatal("loaded path-reconstructing index returned empty path")
	}
}

func TestContainerRoundTripDirected(t *testing.T) {
	raw := gen.BarabasiAlbert(300, 3, 9)
	g, err := pll.NewDigraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.BuildDirected(g, pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, ix, pll.VariantDirected)
}

func TestContainerRoundTripWeighted(t *testing.T) {
	raw := gen.BarabasiAlbert(300, 3, 11)
	r := rng.New(5)
	var wedges []pll.WeightedEdge
	for _, e := range raw.Edges() {
		wedges = append(wedges, pll.WeightedEdge{U: e.U, V: e.V, Weight: uint32(r.Intn(20) + 1)})
	}
	g, err := pll.NewWeightedGraph(raw.NumVertices(), wedges)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.BuildWeighted(g, pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, ix, pll.VariantWeighted)
}

func TestContainerRoundTripDynamicFrozen(t *testing.T) {
	g := testGraph(t)
	di, err := pll.BuildDynamic(g, pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	n := int32(g.NumVertices())
	for i := 0; i < 30; i++ {
		if _, err := di.InsertEdge(r.Int31n(n), r.Int31n(n)); err != nil {
			t.Fatal(err)
		}
	}
	// A dynamic container loads back as a static snapshot answering the
	// same distances; Stats keep the dynamic provenance tag.
	loaded := roundTrip(t, di, pll.VariantDynamic)
	if _, ok := loaded.(*pll.Index); !ok {
		t.Fatalf("frozen dynamic index loaded as %T, want *pll.Index", loaded)
	}
	// Freezing explicitly keeps the tag too.
	roundTrip(t, di.Freeze(), pll.VariantDynamic)
}

// Every saved file must load through LoadFile and the typed
// LoadIndexFile, and the typed loader must reject another variant with
// a descriptive error instead of misparsing bytes.
func TestContainerFileRoundTripAndVariantMismatch(t *testing.T) {
	g := testGraph(t)
	ix, err := pll.BuildIndex(g, pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.pllbox")
	if err := pll.WriteFlatFile(path, ix); err != nil {
		t.Fatal(err)
	}
	o, err := pll.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	typed, err := pll.LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if o.Distance(0, 5) != ix.Distance(0, 5) || typed.Distance(0, 5) != ix.Distance(0, 5) {
		t.Fatal("file round trip mismatch")
	}
	dg, err := pll.NewDigraph(3, []pll.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dix, err := pll.BuildDirected(dg)
	if err != nil {
		t.Fatal(err)
	}
	dpath := filepath.Join(dir, "d.pllbox")
	if err := pll.WriteFlatFile(dpath, dix); err != nil {
		t.Fatal(err)
	}
	if _, err := pll.LoadIndexFile(dpath); err == nil || !strings.Contains(err.Error(), "directed") {
		t.Fatalf("LoadIndexFile on a directed container: got %v, want a variant mismatch error", err)
	}
}

// A WriteTo that cannot serialize (parent pointers on variants whose
// container lacks them) must fail before emitting any bytes, so a
// failed save never leaves a partial header on the destination.
func TestContainerWriteToFailsBeforeWriting(t *testing.T) {
	dg, err := pll.NewDigraph(3, []pll.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dix, err := pll.BuildDirected(dg, pll.WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := dix.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Fatalf("directed WithPaths WriteTo: n=%d len=%d err=%v, want 0 bytes and an error", n, buf.Len(), err)
	}
	wg, err := pll.NewWeightedGraph(3, []pll.WeightedEdge{{U: 0, V: 1, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	wix, err := pll.BuildWeighted(wg, pll.WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := wix.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Fatalf("weighted WithPaths WriteTo: n=%d len=%d err=%v, want 0 bytes and an error", n, buf.Len(), err)
	}
}

func TestContainerRejectsCorruptHeaders(t *testing.T) {
	ix, err := pll.BuildIndex(testGraph(t), pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = mutate(b)
		if _, err := pll.Load(bytes.NewReader(b)); !errors.Is(err, pll.ErrBadIndexFile) {
			t.Errorf("%s: got %v, want ErrBadIndexFile", name, err)
		}
	}
	corrupt("empty input", func(b []byte) []byte { return nil })
	corrupt("truncated header", func(b []byte) []byte { return b[:10] })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("unknown version", func(b []byte) []byte { b[8], b[9] = 0xFF, 0xFF; return b })
	corrupt("version-1 header", func(b []byte) []byte { b[8], b[9] = 1, 0; return b })
	corrupt("bare version-1 payload", func(b []byte) []byte { return append([]byte("PLLIDX01"), b[16:]...) })
	corrupt("reserved flag bit 0 (retired compression)", func(b []byte) []byte { b[11] |= 1; return b })
	corrupt("unknown variant", func(b []byte) []byte { b[10] = 99; return b })
	corrupt("unknown flags", func(b []byte) []byte { b[11] |= 0x80; return b })
	corrupt("compressed flag on directed tag", func(b []byte) []byte { b[10], b[11] = 2, 1; return b })
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("variant/payload mismatch", func(b []byte) []byte { b[10] = 3; return b }) // weighted tag, plain payload
}

// flatSection returns the payload bytes of flat section id (a
// little-endian array of count elements of elem bytes each).
func flatSection(t *testing.T, data []byte, id uint32) []byte {
	t.Helper()
	nsec := binary.LittleEndian.Uint32(data[24:28])
	for i := uint32(0); i < nsec; i++ {
		e := data[32+24*i:]
		if binary.LittleEndian.Uint32(e[0:4]) == id {
			elem := uint64(binary.LittleEndian.Uint32(e[4:8]))
			off, count := binary.LittleEndian.Uint64(e[8:16]), binary.LittleEndian.Uint64(e[16:24])
			return data[off : off+count*elem]
		}
	}
	t.Fatalf("container has no section %d", id)
	return nil
}

// TestPathRejectsParentCycle loads a container whose parent pointers
// form a cycle — each pointer passes the loader's range check — and
// asks for the path that walks it: Path must return an error instead
// of following the cycle forever.
func TestPathRejectsParentCycle(t *testing.T) {
	edges := make([]pll.Edge, 7)
	for i := range edges {
		edges[i] = pll.Edge{U: int32(i), V: int32(i + 1)}
	}
	g, err := pll.NewGraph(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.BuildIndex(g, pll.WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pll.WriteFlat(&buf, ix); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const secPerm, secLabelOff, secLabelVertex, secLabelDist, secLabelParent = 1, 3, 4, 5, 6
	perm := flatSection(t, data, secPerm)
	offs := flatSection(t, data, secLabelOff)
	hubs := flatSection(t, data, secLabelVertex)
	dists := flatSection(t, data, secLabelDist)
	parents := flatSection(t, data, secLabelParent)
	i32 := func(b []byte, i int) int32 { return int32(binary.LittleEndian.Uint32(b[4*i:])) }
	entry := func(r, hub int32) int { // label entry of hub in rank r's label
		lo, hi := binary.LittleEndian.Uint64(offs[8*r:]), binary.LittleEndian.Uint64(offs[8*r+8:])
		for e := int(lo); e < int(hi); e++ {
			if i32(hubs, e) == hub {
				return e
			}
		}
		t.Fatalf("rank %d carries no hub %d", r, hub)
		return 0
	}
	// The farthest entry (r, hub) has a parent p != hub; pointing p's
	// own parent for that hub back at r makes the chain r -> p -> r ...
	far := 0
	for e := range dists {
		if dists[e] != 255 && dists[e] > dists[far] {
			far = e
		}
	}
	if dists[far] < 2 {
		t.Fatalf("no label entry at distance >= 2")
	}
	r := int32(0)
	for binary.LittleEndian.Uint64(offs[8*(r+1):]) <= uint64(far) {
		r++
	}
	hub, p := i32(hubs, far), i32(parents, far)
	binary.LittleEndian.PutUint32(parents[4*entry(p, hub):], uint32(r))

	o, err := pll.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load rejected in-range parent pointers: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := o.Path(i32(perm, int(r)), i32(perm, int(hub)))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Path over a parent cycle succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Path over a parent cycle did not return")
	}
}
