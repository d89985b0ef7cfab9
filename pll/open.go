package pll

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pll/internal/core"
)

// FlatIndex serves a flat container zero-copy: Open memory-maps the
// file and the query arrays alias the mapping, so
// startup does no per-entry decoding and no label-array copies
// regardless of index size, the kernel shares the pages across
// processes serving the same file, and an index larger than the heap
// still serves in microseconds.
//
// FlatIndex shares the static query surface of the heap-loaded
// variants — Oracle, Batcher, Searcher, CompositeSearcher,
// ProfiledOracle and SearchProfiler — over the mapped label store, and
// adds Closer. Queries answer identically to the heap-loaded oracle of
// the same index. Any number of goroutines may query concurrently;
// Close releases the mapping and must only be called once no queries
// are in flight (queries after Close fault).
//
// Open validates the container's structural metadata (section table,
// permutation, offsets, sentinels) but trusts label contents, exactly
// like the arrays of a freshly built index — feed untrusted files to
// LoadFile, which fully validates every entry, instead.
//
// Aliasing contract: the query arrays are unsafe.Slice views over the
// mapped file image, whose pages the kernel shares read-only with
// every process serving the same file. They must be treated as
// immutable everywhere; writes through such a view are flagged
// mechanically by `go run ./cmd/pllvet ./...` (the mmapwrite
// analyzer).
type FlatIndex struct {
	static // over the core index aliasing the mapping
	store  *core.FlatStore
}

// Open memory-maps a container and returns its zero-copy oracle.
// Malformed files, including files of the retired version-1 format,
// yield errors wrapping ErrBadIndexFile.
//
// Open vs LoadFile: Open decodes, copies and allocates nothing — its
// structural validation is O(n) in the vertex count (perm/offset
// checks plus one sentinel probe per vertex, a single streaming sweep
// of the mapped hub section when the page cache is cold, and
// effectively instant when warm) and keeps the index off the heap, but
// trusts label contents. LoadFile copies the same file onto the heap
// and validates every entry, paying a pass over the labels plus
// allocations proportional to the index size. Serving restarts and hot
// reloads want Open; ad-hoc tooling and untrusted input want LoadFile.
func Open(path string) (*FlatIndex, error) {
	st, err := core.OpenFlat(path)
	if err != nil {
		return nil, err
	}
	c, ok := st.Oracle().(coreIndex)
	if !ok {
		st.Close() //nolint:errcheck // the type error is the one to report
		return nil, fmt.Errorf("pll: unsupported index type %T", st.Oracle())
	}
	return &FlatIndex{static: static{c}, store: st}, nil
}

// Variant reports the container's variant tag without scanning.
func (fi *FlatIndex) Variant() Variant { return fi.store.Header().Variant }

// MappedBytes returns the size of the mapped file image.
func (fi *FlatIndex) MappedBytes() int64 { return fi.store.MappedBytes() }

// ZeroCopy reports whether the query arrays alias the mapping (false
// only on big-endian hosts, where Open decodes copies instead).
func (fi *FlatIndex) ZeroCopy() bool { return fi.store.ZeroCopy() }

// Close releases the mapping. Idempotent. The index must not be
// queried afterwards.
func (fi *FlatIndex) Close() error { return fi.store.Close() }

// FlatOption configures WriteFlat and WriteFlatFile.
type FlatOption = core.FlatOption

// FlatSearch makes WriteFlat persist the hub-inverted search index
// (see Searcher) as optional aligned sections, so Open serves
// KNN/Range/NearestIn zero-copy with no lazy build. The inversion is
// computed first if the oracle has not searched yet; containers grow
// by roughly one (int32, uint32) pair per label entry.
func FlatSearch() FlatOption { return core.FlatSearch() }

// WriteFlat serializes any oracle as a flat container that Open can
// serve zero-copy; without options it writes the same bytes as the
// oracle's WriteTo. Dynamic indexes are frozen first; a
// ConcurrentOracle writes its current snapshot. Directed and weighted
// indexes built WithPaths cannot be serialized. Pass FlatSearch() to
// persist the search inversion too.
func WriteFlat(w io.Writer, o Oracle, opts ...FlatOption) (int64, error) {
	switch ix := o.(type) {
	case interface{ index() coreIndex }:
		return ix.index().WriteFlat(w, opts...)
	case *DynamicIndex:
		return ix.di.WriteFlat(w, opts...)
	case *ConcurrentOracle:
		var n int64
		err := ix.View(func(inner Oracle) error {
			var werr error
			n, werr = WriteFlat(w, inner, opts...)
			return werr
		})
		return n, err
	}
	return 0, fmt.Errorf("pll: %T cannot be written as a flat container", o)
}

// WriteFlatFile writes o to path as a flat container, atomically and
// durably: the container is written to a temp file in the destination
// directory, fsynced, and renamed over path, so a concurrent reader —
// in particular a pllserved SIGHUP reload — can never observe a torn
// or half-written container, and a crash after return cannot lose the
// rename. The old file, if any, stays intact until the atomic swap.
func WriteFlatFile(path string, o Oracle, opts ...FlatOption) error {
	f, tmp, err := createTemp(path)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := WriteFlat(f, o, opts...); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename itself durable. Best effort: some filesystems
	// reject directory fsync, and the data file is already synced.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
	return nil
}
