package pll

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pll/internal/core"
)

// Oracle is the uniform query surface implemented by every index
// variant: *Index, *DirectedIndex, *WeightedIndex and *DynamicIndex.
// Servers and tools program against this interface and stay agnostic of
// which flavor an index file contains:
//
//	o, _ := pll.LoadFile("any.pllbox") // auto-detects the variant
//	d := o.Distance(s, t)              // -1 (Unreachable) if disconnected
//
// Distance returns int64 across all variants — hop counts for the
// unweighted flavors, summed edge weights for the weighted one — with
// Unreachable (-1) for disconnected pairs. Path requires an index built
// WithPaths (and is unavailable on dynamic indexes). WriteTo serializes
// the index as a self-describing container that Load reads back.
//
// Beyond this minimal contract, oracles advertise optional capabilities
// through type-assertion — Batcher for amortized single-source batch
// queries (implemented by every variant), Searcher for exact kNN /
// range / nearest-in-subset queries over the inverted labels
// (implemented by every immutable variant), and Closer for
// resource-backed oracles such as the memory-mapped *FlatIndex. Probe
// for them instead of switching on concrete types; see the Batcher
// documentation for the pattern.
//
// Distance contract: distances are int64 end to end and Unreachable
// (-1) marks disconnected pairs. Narrowing a distance (int32(d),
// uint8(d)) corrupts the sentinel, and ordering comparisons (d < best,
// min) rank -1 below every real distance — guard with d >= 0 or
// d != Unreachable first. Both mistakes are flagged mechanically by
// `go run ./cmd/pllvet ./...` (the distsentinel analyzer).
//
// Concurrency contract: every oracle is safe for concurrent use. The
// static variants (*Index, *DirectedIndex, *WeightedIndex, and frozen
// dynamic snapshots) are immutable after construction, so any number of
// goroutines may call Distance, Path, NumVertices, Stats and WriteTo
// concurrently without synchronization. Construction itself is
// internally concurrent (WithWorkers, GOMAXPROCS workers by default) but
// externally synchronous: Build returns only after every worker
// goroutine has finished, the returned oracle is already immutable, and
// the worker count never changes the result — parallel builds are
// byte-identical to sequential ones. A *DynamicIndex may be read while
// edges are inserted, with no lock on either side: each read call sees
// one published version of the labels, and each InsertEdge or
// InsertEdges call publishes its edges whole, so a read sees all of
// them or none. Inserts run one at a time. ConcurrentOracle adds atomic
// hot-swapping on top.
type Oracle interface {
	// Distance returns the exact shortest-path distance from s to t, or
	// Unreachable (-1) if t cannot be reached from s.
	Distance(s, t int32) int64
	// Path returns one exact shortest path including both endpoints, or
	// nil for disconnected pairs. The index must have been built
	// WithPaths.
	Path(s, t int32) ([]int32, error)
	// NumVertices returns the number of vertices the index covers.
	NumVertices() int
	// Stats summarizes the index (variant, label entries, bytes, ...).
	Stats() Stats
	// WriteTo serializes the index as a flat container.
	io.WriterTo
}

// Variant tags the index flavor in Stats and in the container header.
type Variant = core.Variant

// Variant tags reported by Stats().Variant.
const (
	VariantUndirected = core.VariantUndirected
	VariantDirected   = core.VariantDirected
	VariantWeighted   = core.VariantWeighted
	VariantDynamic    = core.VariantDynamic
)

// BuildableGraph is the sealed set of graph types accepted by Build:
// *Graph, *Digraph and *WeightedGraph.
type BuildableGraph interface {
	// NumVertices returns the number of vertices.
	NumVertices() int
	// build dispatches to the variant-specific builder.
	build(opts []Option) (Oracle, error)
}

// Build constructs the pruned-landmark-labeling oracle matching the
// graph kind: an *Index for a *Graph, a *DirectedIndex for a *Digraph,
// a *WeightedIndex for a *WeightedGraph. Options that do not apply to a
// variant (e.g. WithBitParallel on weighted graphs) are ignored. Use the typed builders (BuildIndex, BuildDirected,
// BuildWeighted, BuildDynamic) when the concrete type is needed.
func Build(g BuildableGraph, opts ...Option) (Oracle, error) {
	return g.build(opts)
}

// Load reads an index serialized by any Oracle's WriteTo (or by
// WriteFlat) onto the heap, validating every entry, and returns the
// matching oracle. The container header names the variant, so callers
// need not know what kind of index the stream holds. A VariantDynamic
// container loads as a static *Index snapshot whose Stats keep the
// dynamic tag. Malformed input, including files of the retired
// version-1 format, yields an error wrapping ErrBadIndexFile.
func Load(r io.Reader) (Oracle, error) {
	v, err := core.LoadAny(r)
	if err != nil {
		return nil, err
	}
	return wrapOracle(v)
}

// LoadFile reads an index file like Load and returns the matching
// oracle.
func LoadFile(path string) (Oracle, error) {
	v, err := core.LoadAnyFile(path)
	if err != nil {
		return nil, err
	}
	return wrapOracle(v)
}

// ErrBadIndexFile is wrapped by all load-time format errors.
var ErrBadIndexFile = core.ErrBadIndexFile

// variantOf names an oracle's flavor without the full Stats scan
// (mismatch errors shouldn't pay an O(n log n) quantile sort). For
// *Index it reports the recorded provenance, so a frozen-dynamic
// snapshot is named "dynamic", matching its container header.
func variantOf(o Oracle) Variant {
	switch ix := o.(type) {
	case interface{ index() coreIndex }:
		return ix.index().Variant()
	case *DynamicIndex:
		return VariantDynamic
	}
	return 0
}

// wrapOracle lifts a core index into its public wrapper.
func wrapOracle(v any) (Oracle, error) {
	switch ix := v.(type) {
	case *core.Index:
		return newIndex(ix), nil
	case *core.DirectedIndex:
		return &DirectedIndex{static{ix}}, nil
	case *core.WeightedIndex:
		return &WeightedIndex{static{ix}}, nil
	}
	return nil, fmt.Errorf("pll: unsupported index type %T", v)
}

// createTemp opens a fresh temp file next to path with os.Create's
// permission semantics (0666 filtered by the umask — os.CreateTemp's
// hardwired 0600 would silently tighten saved indexes).
func createTemp(path string) (*os.File, string, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	for i := 0; ; i++ {
		tmp := filepath.Join(dir, fmt.Sprintf(".%s.tmp-%d-%d", base, os.Getpid(), i))
		f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil {
			return f, tmp, nil
		}
		if !os.IsExist(err) || i >= 10000 {
			return nil, "", err
		}
	}
}

// Validate sanity-checks vertex IDs against an oracle's range, returning
// a descriptive error rather than letting a query panic.
func Validate(o Oracle, vertices ...int32) error {
	n := int32(o.NumVertices())
	for _, v := range vertices {
		if v < 0 || v >= n {
			return fmt.Errorf("pll: vertex %d out of range [0,%d)", v, n)
		}
	}
	return nil
}
