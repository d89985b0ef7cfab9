package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"

	"pll/internal/hubsearch"
)

// Container format version 2 ("flat"): the index laid out in its
// query-ready columnar form so a file can be memory-mapped (or read in
// one call) and served with zero per-entry decoding. The payload stores
// the in-memory arrays themselves — offsets, hub ranks, distances,
// bit-parallel blocks, sentinels included — each 8-byte aligned so a
// mapped file doubles as the backing store of the index's label store
// (labels.go).
//
// Layout (little endian; offsets absolute from the file start):
//
//	container header  16 bytes   magic "PLLBOX", version=2, variant,
//	                             flags, bit-parallel width (container.go)
//	flat header       16 bytes   n uint64, nsec uint32, reserved uint32
//	section table     nsec * 24  id uint32, elemSize uint32,
//	                             off uint64, count uint64
//	sections          ...        raw arrays, zero-padded to 8-byte
//	                             alignment
//
// Every variant stores perm and rank (the rank array is redundant but
// storing it keeps startup free of per-entry work), then each of its
// label families exactly as held in memory — offsets, hubs, distances
// and (undirected only) parents, under the section IDs its layout
// names — then the bit-parallel blocks (undirected only) and the
// optional search sections. One writer and one parser serve every
// variant. OpenFlat maps a file and aliases the sections; LoadAny reads
// a version-2 stream onto the heap with full per-entry validation, so
// both paths answer identically.
const (
	secPerm        uint32 = 1  // int32, n        rank -> vertex
	secRank        uint32 = 2  // int32, n        vertex -> rank
	secLabelOff    uint32 = 3  // int64, n+1      per-rank label offsets
	secLabelVertex uint32 = 4  // int32, L        hub ranks + sentinels
	secLabelDist8  uint32 = 5  // uint8, L        8-bit distances
	secLabelParent uint32 = 6  // int32, L        parent pointers (paths)
	secBPDist      uint32 = 7  // uint8, n*bp     bit-parallel distances
	secBPS1        uint32 = 8  // uint64, n*bp    S^{-1} masks
	secBPS0        uint32 = 9  // uint64, n*bp    S^{0} masks
	secOutOff      uint32 = 10 // int64, n+1      directed L_OUT offsets
	secOutVertex   uint32 = 11 // int32
	secOutDist     uint32 = 12 // uint8
	secInOff       uint32 = 13 // int64, n+1      directed L_IN offsets
	secInVertex    uint32 = 14 // int32
	secInDist      uint32 = 15 // uint8
	secLabelDist32 uint32 = 16 // uint32, L       weighted distances
	secInvOff      uint32 = 17 // int64, runs+1   hub-inverted search offsets
	secInvVertex   uint32 = 18 // int32, L        inverted entries: vertex ranks
	secInvDist     uint32 = 19 // uint32, L       inverted entries: distances
)

// ContainerVersionFlat is the flat (zero-copy) container format
// version, the only one this build reads and writes.
const ContainerVersionFlat uint16 = 2

const (
	flatHeaderSize  = 16
	flatSectionSize = 24
	// flatMaxSections bounds the table a parser will consider; the
	// largest variant writes nine sections.
	flatMaxSections = 32
)

// flatSection is one entry of the section table.
//
// pllvet:untrusted — id/elem/off/count are decoded file bytes; parseFlat
// bounds-checks them against len(data) before any section is touched.
type flatSection struct {
	id    uint32
	elem  uint32
	off   uint64
	count uint64
}

// hostLittleEndian reports whether the running machine stores integers
// little endian, the precondition for aliasing file bytes as typed
// slices. On big-endian hosts every section falls back to a decoded
// copy, keeping Open functional (just not zero-copy).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func align8(off uint64) uint64 { return (off + 7) &^ 7 }

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

// flatInt is the element set of typed flat sections.
type flatInt interface {
	uint8 | ~int32 | ~uint32 | ~int64 | ~uint64
}

// familySections names the flat sections of one label family. A zero
// parent ID means the variant cannot serialize parent pointers.
type familySections struct {
	off, vertex, dist, parent uint32
	what                      string // the family's name in error messages
}

// layout is one variant's flat container: its label families (one, or
// L_OUT and L_IN) and whether it may carry bit-parallel labels. The
// section IDs are the variant's existing ones, so one writer and one
// parser produce and accept exactly the historical bytes.
type layout struct {
	families    []familySections
	bitParallel bool
}

var (
	undirectedLayout = layout{
		families:    []familySections{{secLabelOff, secLabelVertex, secLabelDist8, secLabelParent, "label"}},
		bitParallel: true,
	}
	layouts = map[Variant]layout{
		VariantUndirected: undirectedLayout,
		VariantDynamic:    undirectedLayout,
		VariantDirected: {families: []familySections{
			{secOutOff, secOutVertex, secOutDist, 0, "L_OUT"},
			{secInOff, secInVertex, secInDist, 0, "L_IN"},
		}},
		VariantWeighted: {families: []familySections{{secLabelOff, secLabelVertex, secLabelDist32, 0, "label"}}},
	}
)

// flatWriter accumulates the section table for one flat container and
// then streams header, table and payloads in order.
type flatWriter struct {
	n        uint64
	sections []flatSection
	emit     []func(io.Writer) error
}

// addInts registers one integer section (element size inferred from T).
func addInts[T flatInt](fw *flatWriter, id uint32, xs []T) {
	var zero T
	fw.add(id, uint32(unsafe.Sizeof(zero)), uint64(len(xs)),
		func(w io.Writer) error { return writeInts(w, xs) })
}

func (fw *flatWriter) add(id, elem uint32, count uint64, emit func(io.Writer) error) {
	fw.sections = append(fw.sections, flatSection{id: id, elem: elem, count: count})
	fw.emit = append(fw.emit, emit)
}

// writeTo lays the sections out (assigning aligned offsets) and writes
// the complete flat payload: flat header, section table, padded arrays.
func (fw *flatWriter) writeTo(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	off := uint64(containerHeaderSize + flatHeaderSize + flatSectionSize*len(fw.sections))
	off = align8(off)
	starts := make([]uint64, len(fw.sections))
	for i := range fw.sections {
		starts[i] = off
		fw.sections[i].off = off
		off = align8(off + fw.sections[i].count*uint64(fw.sections[i].elem))
	}

	var hdr [flatHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], fw.n)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(fw.sections)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var ent [flatSectionSize]byte
	for _, s := range fw.sections {
		binary.LittleEndian.PutUint32(ent[0:4], s.id)
		binary.LittleEndian.PutUint32(ent[4:8], s.elem)
		binary.LittleEndian.PutUint64(ent[8:16], s.off)
		binary.LittleEndian.PutUint64(ent[16:24], s.count)
		if _, err := bw.Write(ent[:]); err != nil {
			return err
		}
	}
	var pad [8]byte
	written := uint64(containerHeaderSize + flatHeaderSize + flatSectionSize*len(fw.sections))
	for i, s := range fw.sections {
		if starts[i] > written {
			if _, err := bw.Write(pad[:starts[i]-written]); err != nil {
				return err
			}
			written = starts[i]
		}
		if err := fw.emit[i](bw); err != nil {
			return err
		}
		written += s.count * uint64(s.elem)
	}
	return bw.Flush()
}

// writeInts streams xs little endian through a fixed chunk buffer.
func writeInts[T flatInt](w io.Writer, xs []T) error {
	if b, ok := any(xs).([]uint8); ok { // bytes need no encoding
		_, err := w.Write(b)
		return err
	}
	var buf [4096]byte
	var zero T
	size := int(unsafe.Sizeof(zero))
	for len(xs) > 0 {
		k := min(len(xs), len(buf)/size)
		for i := 0; i < k; i++ {
			if size == 4 {
				binary.LittleEndian.PutUint32(buf[4*i:], uint32(xs[i]))
			} else {
				binary.LittleEndian.PutUint64(buf[8*i:], uint64(xs[i]))
			}
		}
		if _, err := w.Write(buf[:size*k]); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// FlatOption configures WriteFlat.
type FlatOption func(*flatOptions)

type flatOptions struct{ search bool }

// FlatSearch makes WriteFlat persist the hub-inverted search index as
// additional aligned sections, so a memory-mapped container answers
// KNN/Range/NearestIn queries with zero build cost. The inverted index
// is built first if the index has not served a search query yet.
func FlatSearch() FlatOption {
	return func(o *flatOptions) { o.search = true }
}

func applyFlatOptions(opts []FlatOption) flatOptions {
	var o flatOptions
	for _, f := range opts {
		f(&o)
	}
	return o
}

// addSearchSections registers the inverted-index sections.
func (fw *flatWriter) addSearchSections(inv *hubsearch.Inverted) {
	addInts(fw, secInvOff, inv.Off)
	addInts(fw, secInvVertex, inv.Vertex)
	addInts(fw, secInvDist, inv.Dist)
}

// WriteFlat writes the index as a flat (version-2) container whose
// sections OpenFlat can serve zero-copy. Loading the result yields an
// index answering identically to this one. With FlatSearch, the
// hub-inverted search index rides along as optional sections. Parent
// pointers are serialized for undirected indexes only; a directed or
// weighted index built with StorePaths is rejected.
func (st *store[D]) WriteFlat(w io.Writer, opts ...FlatOption) (int64, error) {
	lay := layouts[st.variant]
	if st.HasPaths() && lay.families[0].parent == 0 {
		return 0, fmt.Errorf("core: %s format does not support parent pointers", st.variant)
	}
	o := applyFlatOptions(opts)
	h := ContainerHeader{Version: ContainerVersionFlat, Variant: st.variant, BitParallel: uint32(st.numBP)}
	fw := &flatWriter{n: uint64(st.n)}
	addInts(fw, secPerm, st.perm)
	addInts(fw, secRank, st.rank)
	for i, f := range st.families() {
		ids := lay.families[i]
		addInts(fw, ids.off, f.off)
		addInts(fw, ids.vertex, f.vertex)
		addInts(fw, ids.dist, f.dist)
		if f.parent != nil {
			h.Flags |= ContainerFlagPaths
			addInts(fw, ids.parent, f.parent)
		}
	}
	if st.numBP > 0 {
		addInts(fw, secBPDist, st.bpDist)
		addInts(fw, secBPS1, st.bpS1)
		addInts(fw, secBPS0, st.bpS0)
	}
	if o.search {
		h.Flags |= ContainerFlagSearch
		fw.addSearchSections(st.Inverted())
	}
	return writeContainer(w, h, fw.writeTo)
}

// WriteFlat freezes the dynamic index and writes the snapshot as a flat
// container tagged VariantDynamic (loading yields a static *Index).
func (di *DynamicIndex) WriteFlat(w io.Writer, opts ...FlatOption) (int64, error) {
	return di.Freeze().WriteFlat(w, opts...)
}

// WriteTo writes the index as a flat container without the optional
// search sections. It implements io.WriterTo. Indexes frozen from a
// DynamicIndex keep the dynamic variant tag so the provenance survives
// round trips.
func (st *store[D]) WriteTo(w io.Writer) (int64, error) { return st.WriteFlat(w) }

// WriteTo freezes the dynamic index and writes the snapshot as a flat
// container tagged VariantDynamic. Loading it yields a static Index
// whose Stats keep the dynamic provenance (edge insertion does not
// survive serialization).
func (di *DynamicIndex) WriteTo(w io.Writer) (int64, error) { return di.WriteFlat(w) }

// ---------------------------------------------------------------------
// Parsing (shared by the mmap and heap paths)
// ---------------------------------------------------------------------

// flatParser decodes one flat container from a complete file image.
// When alias is true, sections are reinterpreted in place (zero copy)
// wherever alignment and host endianness allow; otherwise they are
// copied out. When full is true, per-entry label validation runs so
// that a hostile stream can never produce an index whose queries read
// out of bounds — the heap loader (LoadAny) always validates fully,
// the mmap path (OpenFlat) trusts label contents and checks structure
// only.
//
// pllvet:sharedro — data may be a memory mapping shared read-only with
// every process serving the same file; slices derived from it (the
// section views) must never be written.
type flatParser struct {
	data     []byte
	h        ContainerHeader
	n        int
	alias    bool
	full     bool
	zeroCopy bool // stays true only if every typed section aliased
	secs     map[uint32]flatSection
}

func parseFlat(data []byte, h ContainerHeader, alias, full bool) (any, bool, error) {
	if len(data) < containerHeaderSize+flatHeaderSize {
		return nil, false, fmt.Errorf("%w: truncated flat header", ErrBadIndexFile)
	}
	n64 := binary.LittleEndian.Uint64(data[16:24])
	nsec := binary.LittleEndian.Uint32(data[24:28])
	if n64 > math.MaxInt32 {
		return nil, false, fmt.Errorf("%w: implausible n=%d", ErrBadIndexFile, n64)
	}
	if nsec > flatMaxSections {
		return nil, false, fmt.Errorf("%w: implausible section count %d", ErrBadIndexFile, nsec)
	}
	tableEnd := uint64(containerHeaderSize+flatHeaderSize) + uint64(nsec)*flatSectionSize
	if uint64(len(data)) < tableEnd {
		return nil, false, fmt.Errorf("%w: truncated flat section table", ErrBadIndexFile)
	}
	p := &flatParser{
		data:     data,
		h:        h,
		n:        int(n64),
		alias:    alias,
		full:     full,
		zeroCopy: alias,
		secs:     make(map[uint32]flatSection, nsec), //pllvet:ignore untrustedalloc nsec validated against flatMaxSections (32) above
	}
	for i := uint64(0); i < uint64(nsec); i++ {
		b := data[containerHeaderSize+flatHeaderSize+i*flatSectionSize:]
		s := flatSection{
			id:    binary.LittleEndian.Uint32(b[0:4]),
			elem:  binary.LittleEndian.Uint32(b[4:8]),
			off:   binary.LittleEndian.Uint64(b[8:16]),
			count: binary.LittleEndian.Uint64(b[16:24]),
		}
		if _, dup := p.secs[s.id]; dup {
			return nil, false, fmt.Errorf("%w: duplicate flat section %d", ErrBadIndexFile, s.id)
		}
		if s.off%8 != 0 || s.off < tableEnd {
			return nil, false, fmt.Errorf("%w: misplaced flat section %d at offset %d", ErrBadIndexFile, s.id, s.off)
		}
		if s.elem != 1 && s.elem != 4 && s.elem != 8 {
			return nil, false, fmt.Errorf("%w: flat section %d has element size %d", ErrBadIndexFile, s.id, s.elem)
		}
		// Bound off and count individually before the sum so a huge
		// offset cannot wrap the uint64 arithmetic past the check.
		if s.off > uint64(len(data)) || s.count > uint64(len(data)) ||
			s.off+s.count*uint64(s.elem) > uint64(len(data)) {
			return nil, false, fmt.Errorf("%w: flat section %d out of bounds", ErrBadIndexFile, s.id)
		}
		p.secs[s.id] = s
	}
	var (
		oracle any
		err    error
	)
	switch h.Variant {
	case VariantUndirected, VariantDynamic:
		ix := &Index{}
		oracle, err = ix, parseStore(p, &ix.store)
	case VariantDirected:
		ix := &DirectedIndex{}
		oracle, err = ix, parseStore(p, &ix.store)
	case VariantWeighted:
		ix := &WeightedIndex{}
		oracle, err = ix, parseStore(p, &ix.store)
	default:
		err = fmt.Errorf("%w: unknown variant tag %d", ErrBadIndexFile, uint8(h.Variant))
	}
	if err != nil {
		return nil, false, err
	}
	return oracle, p.zeroCopy, nil
}

// section fetches a table entry, checking the declared element size.
func (p *flatParser) section(id, elem uint32, what string) (flatSection, error) {
	s, ok := p.secs[id]
	if !ok {
		return s, fmt.Errorf("%w: missing flat section %q", ErrBadIndexFile, what)
	}
	if s.elem != elem {
		return s, fmt.Errorf("%w: flat section %q has element size %d, want %d",
			ErrBadIndexFile, what, s.elem, elem)
	}
	return s, nil
}

// The typed accessors below reinterpret a section's bytes in place when
// the parser may alias (and the platform allows), and decode a copy
// otherwise. Bounds were established by parseFlat.

// flatInts returns one integer section, aliased in place when the
// parser may alias and the platform allows, decoded into a copy
// otherwise (element size and alignment inferred from T).
//
// pllvet:roview — the result may alias read-only mapped pages; treat
// it as immutable even on the copying path.
func flatInts[T flatInt](p *flatParser, id uint32, what string) ([]T, error) {
	var zero T
	size := uintptr(unsafe.Sizeof(zero))
	s, err := p.section(id, uint32(size), what)
	if err != nil {
		return nil, err
	}
	b := p.data[s.off:]
	if s.count == 0 {
		return []T{}, nil
	}
	if p.alias && (size == 1 || hostLittleEndian) && uintptr(unsafe.Pointer(&b[0]))%size == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), int(s.count)), nil
	}
	p.zeroCopy = false
	//pllvet:ignore untrustedalloc s.count bounds-checked against len(data) by parseFlat
	out := make([]T, s.count)
	for i := range out {
		switch size {
		case 1:
			out[i] = T(b[i])
		case 4:
			out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		default:
			out[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return out, nil
}

// permRank loads and cross-validates the perm and rank sections: both
// must be permutations of [0,n) and mutual inverses. O(n), no label
// pages touched.
func (p *flatParser) permRank() (perm, rank []int32, err error) {
	if perm, err = flatInts[int32](p, secPerm, "permutation"); err != nil {
		return nil, nil, err
	}
	if rank, err = flatInts[int32](p, secRank, "rank"); err != nil {
		return nil, nil, err
	}
	if len(perm) != p.n || len(rank) != p.n {
		return nil, nil, fmt.Errorf("%w: permutation sections sized %d/%d, want n=%d",
			ErrBadIndexFile, len(perm), len(rank), p.n)
	}
	for i, v := range perm {
		if v < 0 || int(v) >= p.n || rank[v] != int32(i) {
			return nil, nil, fmt.Errorf("%w: perm/rank mismatch at rank %d", ErrBadIndexFile, i)
		}
	}
	return perm, rank, nil
}

// checkLabelFamily validates one (off, vertex) label family: offsets
// monotone with room for the per-vertex sentinel, final offset matching
// the array length, and a sentinel hub value of n closing every label.
// In full mode each entry is additionally checked (hubs strictly
// ascending and in range), which is what makes queries on untrusted
// heap-loaded input panic-free.
func (p *flatParser) checkLabelFamily(off []int64, vertex []int32, what string) error {
	n := p.n
	if len(off) != n+1 {
		return fmt.Errorf("%w: %s offsets sized %d, want n+1=%d", ErrBadIndexFile, what, len(off), n+1)
	}
	if off[0] != 0 || off[n] != int64(len(vertex)) {
		return fmt.Errorf("%w: %s offsets do not span the label array", ErrBadIndexFile, what)
	}
	// Establish monotonicity over the whole array first: together with
	// the span check above it bounds every offset inside the label
	// array, so the sentinel probes below cannot index out of range.
	for v := 0; v < n; v++ {
		if off[v+1] <= off[v] {
			return fmt.Errorf("%w: %s offsets not increasing at vertex %d", ErrBadIndexFile, what, v)
		}
	}
	for v := 0; v < n; v++ {
		if vertex[off[v+1]-1] != int32(n) {
			return fmt.Errorf("%w: %s label of vertex %d lacks its sentinel", ErrBadIndexFile, what, v)
		}
	}
	if !p.full {
		return nil
	}
	for v := 0; v < n; v++ {
		prev := int32(-1)
		for i := off[v]; i < off[v+1]-1; i++ {
			hub := vertex[i]
			if hub <= prev || int(hub) >= n {
				return fmt.Errorf("%w: %s label of vertex %d not strictly sorted in range", ErrBadIndexFile, what, v)
			}
			prev = hub
		}
	}
	return nil
}

// parseSearch decodes the optional hub-inverted search sections,
// validating their structure (and, in full mode, every entry) before
// they are attached to the index.
func (p *flatParser) parseSearch(numBP int, bps1, bps0 []uint64) (*hubsearch.Inverted, error) {
	off, err := flatInts[int64](p, secInvOff, "inverted search offsets")
	if err != nil {
		return nil, err
	}
	vs, err := flatInts[int32](p, secInvVertex, "inverted search vertices")
	if err != nil {
		return nil, err
	}
	ds, err := flatInts[uint32](p, secInvDist, "inverted search distances")
	if err != nil {
		return nil, err
	}
	inv := &hubsearch.Inverted{N: p.n, NumBP: numBP, Off: off, Vertex: vs, Dist: ds, BPS1: bps1, BPS0: bps0}
	if err := inv.Validate(p.full); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	return inv, nil
}

// parseStore decodes a label store from the sections the container's
// variant layout names: perm and rank, each label family (with parents
// when the paths flag is set), the bit-parallel blocks and the optional
// search sections. Flags or a bit-parallel width the layout cannot
// carry are rejected.
func parseStore[D dist](p *flatParser, st *store[D]) error {
	lay := layouts[p.h.Variant]
	paths := p.h.Flags&ContainerFlagPaths != 0
	if paths && lay.families[0].parent == 0 || p.h.BitParallel != 0 && !lay.bitParallel {
		return fmt.Errorf("%w: unexpected flags %#x / bit-parallel width %d for a flat %s container",
			ErrBadIndexFile, p.h.Flags, p.h.BitParallel, p.h.Variant)
	}
	perm, rank, err := p.permRank()
	if err != nil {
		return err
	}
	st.n, st.variant, st.perm, st.rank = p.n, p.h.Variant, perm, rank
	fams := make([]*labels[D], len(lay.families))
	for i, ids := range lay.families {
		if fams[i], err = parseFamily[D](p, ids, paths); err != nil {
			return err
		}
	}
	st.out, st.in = fams[0], fams[len(fams)-1]
	if st.numBP = int(p.h.BitParallel); st.numBP > 0 {
		if uint64(st.numBP) > 1<<16 {
			return fmt.Errorf("%w: implausible bit-parallel width %d", ErrBadIndexFile, st.numBP)
		}
		want := uint64(st.numBP) * uint64(p.n)
		if st.bpDist, err = flatInts[uint8](p, secBPDist, "bit-parallel distances"); err != nil {
			return err
		}
		if st.bpS1, err = flatInts[uint64](p, secBPS1, "bit-parallel S-1 sets"); err != nil {
			return err
		}
		if st.bpS0, err = flatInts[uint64](p, secBPS0, "bit-parallel S0 sets"); err != nil {
			return err
		}
		if uint64(len(st.bpDist)) != want || uint64(len(st.bpS1)) != want || uint64(len(st.bpS0)) != want {
			return fmt.Errorf("%w: bit-parallel sections sized %d/%d/%d, want %d",
				ErrBadIndexFile, len(st.bpDist), len(st.bpS1), len(st.bpS0), want)
		}
	}
	if p.h.Flags&ContainerFlagSearch != 0 {
		inv, err := p.parseSearch(st.numBP, st.bpS1, st.bpS0)
		if err != nil {
			return err
		}
		st.search.inv = inv
	}
	return nil
}

// parseFamily decodes and validates one label family.
func parseFamily[D dist](p *flatParser, ids familySections, paths bool) (*labels[D], error) {
	var (
		l   labels[D]
		err error
	)
	if l.off, err = flatInts[int64](p, ids.off, ids.what+" offsets"); err != nil {
		return nil, err
	}
	if l.vertex, err = flatInts[int32](p, ids.vertex, ids.what+" hubs"); err != nil {
		return nil, err
	}
	if l.dist, err = flatInts[D](p, ids.dist, ids.what+" distances"); err != nil {
		return nil, err
	}
	if len(l.dist) != len(l.vertex) {
		return nil, fmt.Errorf("%w: %s hub/distance sections differ in length", ErrBadIndexFile, ids.what)
	}
	if err := p.checkLabelFamily(l.off, l.vertex, ids.what); err != nil {
		return nil, err
	}
	if !paths {
		return &l, nil
	}
	if l.parent, err = flatInts[int32](p, ids.parent, "parent pointers"); err != nil {
		return nil, err
	}
	if len(l.parent) != len(l.vertex) {
		return nil, fmt.Errorf("%w: parent section differs in length", ErrBadIndexFile)
	}
	if p.full {
		for _, par := range l.parent {
			if par < -1 || int(par) >= p.n {
				return nil, fmt.Errorf("%w: parent pointer %d out of range", ErrBadIndexFile, par)
			}
		}
	}
	return &l, nil
}

// ---------------------------------------------------------------------
// Heap loading (reader path, full validation)
// ---------------------------------------------------------------------

// allocChunk bounds how many bytes the heap loader allocates ahead of
// the bytes actually read. The section table of a malformed (or
// adversarial) file can declare sizes in the gigabytes while the stream
// holds a few hundred bytes; readBytesCapped therefore grows its result
// incrementally, so bogus sizes fail with a small footprint instead of
// an OOM. The pll.FuzzLoad target leans on this.
const allocChunk = 1 << 20

// readBytesCapped reads exactly n bytes, allocating in bounded chunks.
func readBytesCapped(r io.Reader, n int64, what string) ([]byte, error) {
	out := make([]byte, 0, min(n, allocChunk))
	for int64(len(out)) < n {
		k := min(n-int64(len(out)), allocChunk)
		start := len(out)
		out = append(out, make([]byte, k)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, fmt.Errorf("%w: truncated %s: %v", ErrBadIndexFile, what, err)
		}
	}
	return out, nil
}

// loadFlatFromReader reads a flat payload from a stream into one heap
// buffer and parses it with full per-entry validation. The container
// header was already consumed by LoadAny.
func loadFlatFromReader(r io.Reader, h ContainerHeader) (any, error) {
	fixed, err := readBytesCapped(r, flatHeaderSize, "flat header")
	if err != nil {
		return nil, err
	}
	nsec := binary.LittleEndian.Uint32(fixed[8:12])
	if nsec > flatMaxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrBadIndexFile, nsec)
	}
	table, err := readBytesCapped(r, int64(nsec)*flatSectionSize, "flat section table")
	if err != nil {
		return nil, err
	}
	end := uint64(containerHeaderSize+flatHeaderSize) + uint64(nsec)*flatSectionSize
	for i := uint64(0); i < uint64(nsec); i++ {
		b := table[i*flatSectionSize:]
		off := binary.LittleEndian.Uint64(b[8:16])
		count := binary.LittleEndian.Uint64(b[16:24])
		elem := uint64(binary.LittleEndian.Uint32(b[4:8]))
		if elem == 0 || elem > 8 || count > math.MaxUint64/8 || off > math.MaxUint64-count*elem {
			return nil, fmt.Errorf("%w: flat section table overflow", ErrBadIndexFile)
		}
		if e := off + count*elem; e > end {
			end = e
		}
	}
	if end > math.MaxInt64/2 {
		return nil, fmt.Errorf("%w: implausible flat payload size %d", ErrBadIndexFile, end)
	}
	// Reassemble a complete file image (section offsets are absolute),
	// reading the payload in capped chunks so a bogus table cannot force
	// a giant allocation ahead of real bytes.
	hdr := h.encode()
	data := make([]byte, 0, min(int64(end), allocChunk))
	data = append(data, hdr[:]...)
	data = append(data, fixed...)
	data = append(data, table...)
	rest, err := readBytesCapped(r, int64(end)-int64(len(data)), "flat sections")
	if err != nil {
		return nil, err
	}
	data = append(data, rest...)
	oracle, _, err := parseFlat(data, h, false, true)
	return oracle, err
}

// ---------------------------------------------------------------------
// Memory-mapped opening
// ---------------------------------------------------------------------

// FlatStore is an open flat container: the mapped (or slurped) file
// image plus the oracle whose arrays alias it. Queries on the oracle
// read the mapped pages directly — nothing is decoded, copied or
// allocated per label entry at open time (validation is O(n) in the
// vertex count: perm/offset checks and one sentinel probe per vertex,
// which on a cold page cache streams the hub section in once), the
// kernel shares the pages across processes serving the same file, and
// the index may exceed the heap.
//
// Close unmaps the image; the oracle must not be used afterwards.
type FlatStore struct {
	header   ContainerHeader
	oracle   any // *Index, *DirectedIndex or *WeightedIndex over the mapped label store
	size     int64
	zeroCopy bool
	unmap    func() error
}

// OpenFlat maps path and returns its flat store. Malformed files,
// including files of the retired version-1 format, yield errors
// wrapping ErrBadIndexFile.
//
// The structural metadata (section table, perm/rank, offsets,
// sentinels) is validated up front; label contents are trusted, exactly
// like the in-memory arrays of a built index. Use the heap loader
// (LoadAny) for untrusted input.
func OpenFlat(path string) (*FlatStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < containerHeaderSize+flatHeaderSize {
		return nil, fmt.Errorf("%w: file too small for a flat container", ErrBadIndexFile)
	}
	data, unmap, err := mapFlatFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("core: mapping %s: %w", path, err)
	}
	fs, err := newFlatStore(data, st.Size(), unmap)
	if err != nil {
		unmap() //nolint:errcheck // the parse error is the one to report
		return nil, err
	}
	return fs, nil
}

// newFlatStore parses a complete flat file image into a store.
func newFlatStore(data []byte, size int64, unmap func() error) (*FlatStore, error) {
	h, err := parseContainerHeader(data[:containerHeaderSize])
	if err != nil {
		return nil, err
	}
	oracle, zeroCopy, err := parseFlat(data, h, true, false)
	if err != nil {
		return nil, err
	}
	return &FlatStore{header: h, oracle: oracle, size: size, zeroCopy: zeroCopy, unmap: unmap}, nil
}

// Oracle returns the aliasing index: *Index, *DirectedIndex or
// *WeightedIndex.
func (fs *FlatStore) Oracle() any { return fs.oracle }

// Header returns the parsed container header.
func (fs *FlatStore) Header() ContainerHeader { return fs.header }

// MappedBytes returns the size of the mapped file image.
func (fs *FlatStore) MappedBytes() int64 { return fs.size }

// ZeroCopy reports whether every section aliases the mapped image
// (false on big-endian hosts or pathologically misaligned files, where
// sections were decoded into heap copies instead).
func (fs *FlatStore) ZeroCopy() bool { return fs.zeroCopy }

// Close releases the mapping. It is idempotent; the oracle must not be
// queried after the first Close.
func (fs *FlatStore) Close() error {
	u := fs.unmap
	fs.unmap = nil
	if u == nil {
		return nil
	}
	return u()
}
