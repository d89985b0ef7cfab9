package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Self-describing container format (little endian).
//
// Every index variant serializes to one uniform envelope so that a
// server can load an index file blind — LoadAny and OpenFlat inspect
// the header and return the right in-memory oracle:
//
//	magic    [8]byte  "PLLBOX" + two zero bytes
//	version  uint16   container format version, always 2: flat
//	                  zero-copy columnar sections (flat.go)
//	variant  uint8    VariantUndirected | VariantDirected |
//	                  VariantWeighted | VariantDynamic
//	flags    uint8    bit 0: reserved, always rejected
//	                  bit 1: payload carries parent pointers (paths)
//	                  bit 2: payload carries hub-inverted search sections
//	bp       uint32   bit-parallel width (number of BP roots, 0 if none)
//	payload  []byte   flat header, section table and sections (flat.go)
//
// Version 1 (record-oriented payloads, optionally delta-varint
// compressed under flag bit 0) and the bare pre-container payloads
// ("PLLIDX*" magic) are rejected with a message naming the conversion
// route: an earlier build's `pll convert` rewrites them as flat
// containers.
var containerMagic = [8]byte{'P', 'L', 'L', 'B', 'O', 'X', 0, 0}

// ErrBadIndexFile is wrapped by all load-time format errors.
var ErrBadIndexFile = errors.New("core: malformed index file")

// convertHint names the way out for files of the retired version-1
// format.
const convertHint = "this build reads only flat (version-2) containers; rewrite the file with `pll convert` from an earlier build"

// Variant tags index flavors inside the container header.
type Variant uint8

const (
	// VariantUndirected is the plain unweighted Index (bit-parallel
	// labels and parent pointers optional).
	VariantUndirected Variant = 1
	// VariantDirected is the DirectedIndex (two label families).
	VariantDirected Variant = 2
	// VariantWeighted is the WeightedIndex (32-bit distances).
	VariantWeighted Variant = 3
	// VariantDynamic tags a snapshot frozen from a DynamicIndex; the
	// payload is the undirected layout and loads as an Index whose Stats
	// keep the dynamic provenance.
	VariantDynamic Variant = 4
)

// String names the variant for stats output and error messages.
func (v Variant) String() string {
	switch v {
	case VariantUndirected:
		return "undirected"
	case VariantDirected:
		return "directed"
	case VariantWeighted:
		return "weighted"
	case VariantDynamic:
		return "dynamic"
	}
	return fmt.Sprintf("variant(%d)", uint8(v))
}

// Container flag bits. Bit 0 marked the retired compressed payload and
// stays reserved: files setting it are rejected.
const (
	// ContainerFlagPaths marks a payload with per-label parent pointers.
	ContainerFlagPaths uint8 = 1 << 1
	// ContainerFlagSearch marks a payload carrying the hub-inverted
	// search sections (secInv*), so Open serves KNN/Range/NearestIn
	// zero-copy with no lazy build.
	ContainerFlagSearch uint8 = 1 << 2

	containerKnownFlags = ContainerFlagPaths | ContainerFlagSearch
)

// containerHeaderSize is the fixed byte length of the container header.
const containerHeaderSize = 16

// ContainerHeader is the parsed fixed-size container prefix.
//
// pllvet:untrusted — fields come straight from the file; any
// allocation they size must be capped or grown behind reads.
type ContainerHeader struct {
	Version     uint16
	Variant     Variant
	Flags       uint8
	BitParallel uint32
}

func (h ContainerHeader) encode() [containerHeaderSize]byte {
	var b [containerHeaderSize]byte
	copy(b[:8], containerMagic[:])
	binary.LittleEndian.PutUint16(b[8:10], h.Version)
	b[10] = uint8(h.Variant)
	b[11] = h.Flags
	binary.LittleEndian.PutUint32(b[12:16], h.BitParallel)
	return b
}

// parseContainerHeader validates a fixed-size header buffer: magic,
// version, variant tag and flag bits.
func parseContainerHeader(b []byte) (ContainerHeader, error) {
	if [8]byte(b[:8]) != containerMagic {
		if bytes.HasPrefix(b, []byte("PLLIDX")) {
			return ContainerHeader{}, fmt.Errorf("%w: bare version-1 payload (magic %q): %s", ErrBadIndexFile, b[:8], convertHint)
		}
		return ContainerHeader{}, fmt.Errorf("%w: unrecognized magic %q", ErrBadIndexFile, b[:8])
	}
	h := ContainerHeader{
		Version:     binary.LittleEndian.Uint16(b[8:10]),
		Variant:     Variant(b[10]),
		Flags:       b[11],
		BitParallel: binary.LittleEndian.Uint32(b[12:16]),
	}
	if h.Version == 1 {
		return h, fmt.Errorf("%w: version-1 container: %s", ErrBadIndexFile, convertHint)
	}
	if h.Version != ContainerVersionFlat {
		return h, fmt.Errorf("%w: unsupported container version %d (this build reads version %d)",
			ErrBadIndexFile, h.Version, ContainerVersionFlat)
	}
	switch h.Variant {
	case VariantUndirected, VariantDirected, VariantWeighted, VariantDynamic:
	default:
		return h, fmt.Errorf("%w: unknown variant tag %d", ErrBadIndexFile, uint8(h.Variant))
	}
	if h.Flags&^containerKnownFlags != 0 {
		return h, fmt.Errorf("%w: unknown container flags %#x", ErrBadIndexFile, h.Flags)
	}
	return h, nil
}

// countWriter counts bytes for the io.WriterTo contract.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeContainer emits the header and then the payload, returning the
// total bytes written.
func writeContainer(w io.Writer, h ContainerHeader, payload func(io.Writer) error) (int64, error) {
	cw := &countWriter{w: w}
	hdr := h.encode()
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	if err := payload(cw); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// LoadAny reads a flat container onto the heap with full per-entry
// validation and returns the matching oracle: *Index, *DirectedIndex
// or *WeightedIndex. VariantDynamic containers load as a static *Index
// snapshot. Malformed input, including files of the retired version-1
// format, yields an error wrapping ErrBadIndexFile. OpenFlat is the
// zero-copy path for the same files.
func LoadAny(r io.Reader) (any, error) {
	var hdr [containerHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated container header: %v", ErrBadIndexFile, err)
	}
	h, err := parseContainerHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return loadFlatFromReader(r, h)
}

// LoadAnyFile reads an index file from a path.
func LoadAnyFile(path string) (any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadAny(f)
}
