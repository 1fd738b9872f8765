package coo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian — the byte order of the SPTN format. On the (rare)
// big-endian host the zero-copy view would read garbage, so OpenMapped
// falls back to the byte-swapping heap loader there.
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// Mapped is a read-only tensor backed by an mmap'd v2 SPTN file (or, on
// platforms/files where zero-copy is impossible, a heap copy with the same
// interface). The index and value arrays are views straight into the page
// cache: loading is O(1), touching a window faults in only that window's
// pages, and the kernel evicts cold pages under memory pressure — which is
// exactly the file-backed residency tier the streaming driver builds on.
//
// The tensor view returned by Tensor() must be treated as immutable: the
// pages are PROT_READ and writes through the view fault. Close unmaps; a
// finalizer covers leaked handles.
type Mapped struct {
	t      *Tensor
	h      *mapHandle // nil on the heap-fallback path
	chunks []int      // sorted-window boundaries incl. 0 and NNZ; nil when unsorted
	sorted bool
	path   string
}

// mapHandle owns one mmap region. It is what the finalizer hangs off:
// both the Mapped and every tensor view reference the handle (never the
// other way around), so there is no finalizer cycle, and the pages stay
// mapped as long as any view is reachable.
type mapHandle struct {
	data []byte
}

func (h *mapHandle) release() error {
	if h.data == nil {
		return nil
	}
	data := h.data
	h.data = nil
	return munmapFile(data)
}

// OpenMapped opens a binary tensor file as a Mapped view. v2 files on a
// little-endian unix host map zero-copy; v1 files, big-endian hosts, and
// platforms without mmap load into heap with identical behavior (ZeroCopy
// reports which happened). The file may be removed after OpenMapped
// returns — the mapping (or heap copy) stays valid.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !mmapSupported || !hostLittleEndian() || !fi.Mode().IsRegular() || fi.Size() < 32 {
		return openHeap(path)
	}
	var ver [8]byte
	if _, err := f.ReadAt(ver[:], 0); err != nil {
		return nil, &FormatError{Section: "magic", Msg: err.Error()}
	}
	if string(ver[:4]) != binMagic {
		return nil, &FormatError{Section: "magic", Msg: fmt.Sprintf("got %q, want %q", ver[:4], binMagic)}
	}
	if binary.LittleEndian.Uint32(ver[4:]) != binVersion2 {
		// v1 has no alignment guarantees; heap-load it.
		return openHeap(path)
	}
	data, err := mmapFile(f, fi.Size())
	if err != nil {
		return openHeap(path)
	}
	m, err := newMappedView(data, path)
	if err != nil {
		_ = munmapFile(data)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// openHeap is the portable fallback: a normal load presented through the
// Mapped interface, with window boundaries recomputed from the data.
func openHeap(path string) (*Mapped, error) {
	t, err := LoadBin(path)
	if err != nil {
		return nil, err
	}
	m := &Mapped{t: t, path: path, sorted: t.IsSorted()}
	if m.sorted {
		m.chunks = t.ChunkBoundaries(DefaultWindowNNZ)
	}
	return m, nil
}

// newMappedView parses a v2 header out of the mapped bytes and builds the
// zero-copy tensor view. The header is validated by the same code path as
// the stream reader, then each section is checked to lie inside the mapping
// before any unsafe view is taken.
func newMappedView(data []byte, path string) (*Mapped, error) {
	h, err := readHeader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	if h.version != binVersion2 {
		return nil, &FormatError{Section: "version", Msg: "mapped view requires version 2"}
	}
	hdrSize := uint64(32) + 8*uint64(h.order) + 8*h.nwin
	need := hdrSize + h.payloadBytes()
	if uint64(len(data)) < need {
		return nil, &FormatError{Section: "payload",
			Msg: fmt.Sprintf("file has %d bytes but the header declares %d", len(data), need)}
	}
	t := &Tensor{
		Dims: append([]uint64(nil), h.dims...),
		Inds: make([][]uint32, h.order),
		Vals: []float64{},
	}
	off := hdrSize
	colPad := pad8(4 * h.nnz)
	for m := range t.Inds {
		t.Inds[m] = u32View(data[off:], h.nnz)
		off += colPad
	}
	t.Vals = f64View(data[off:], h.nnz)
	// Deliberately no full index validation here: that would touch every
	// page of a file that may be 10x RAM at open time. Structural header
	// checks ran above; the window stream validates each window as it
	// faults it in, and Validate() runs the full check on demand.
	mp := &Mapped{t: t, path: path, sorted: h.flags&binFlagSorted != 0}
	if mp.sorted {
		mp.chunks = make([]int, 0, h.nwin+1)
		for _, s := range h.wins {
			mp.chunks = append(mp.chunks, int(s))
		}
		mp.chunks = append(mp.chunks, int(h.nnz))
		if h.nnz == 0 {
			mp.chunks = []int{0}
		}
		// Spot-check the index against the data: every stored boundary must
		// be a mode-0 change, or the windows would split sub-tensors. An
		// empty tensor's chunk list is the single element {0} — no interior
		// boundaries to check.
		if len(mp.chunks) > 2 {
			lead := t.Inds[0]
			for _, b := range mp.chunks[1 : len(mp.chunks)-1] {
				if lead[b] == lead[b-1] {
					return nil, &FormatError{Section: "window index",
						Msg: fmt.Sprintf("boundary %d is not a mode-0 index change", b)}
				}
			}
		}
	}
	mp.h = &mapHandle{data: data}
	t.backing = mp.h
	runtime.SetFinalizer(mp.h, (*mapHandle).release)
	return mp, nil
}

// u32View reinterprets the first 4n bytes of b as a []uint32 without
// copying. b's base is 8-aligned by the v2 layout.
func u32View(b []byte, n uint64) []uint32 {
	if n == 0 {
		return []uint32{}
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// f64View reinterprets the first 8n bytes of b as a []float64.
func f64View(b []byte, n uint64) []float64 {
	if n == 0 {
		return []float64{}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

// Tensor returns the (possibly zero-copy) tensor view. Callers must not
// mutate it; the streamed driver never does.
func (m *Mapped) Tensor() *Tensor { return m.t }

// NNZ returns the non-zero count.
func (m *Mapped) NNZ() int { return m.t.NNZ() }

// Dims returns the mode sizes.
func (m *Mapped) Dims() []uint64 { return m.t.Dims }

// Order returns the mode count.
func (m *Mapped) Order() int { return m.t.Order() }

// Sorted reports whether the file's non-zeros are lexicographically sorted
// (and therefore streamable window by window).
func (m *Mapped) Sorted() bool { return m.sorted }

// ZeroCopy reports whether the view is an actual mmap (false on the heap
// fallback).
func (m *Mapped) ZeroCopy() bool { return m.h != nil && m.h.data != nil }

// Bytes returns the mapped (or heap) payload size.
func (m *Mapped) Bytes() uint64 {
	if m.h != nil && m.h.data != nil {
		return uint64(len(m.h.data))
	}
	return m.t.Bytes()
}

// Validate runs the full structural check (every index in range) — a
// sequential pass over the whole mapping, so callers on the out-of-core
// path prefer Stream's incremental per-window validation.
func (m *Mapped) Validate() error { return m.t.Validate() }

// Close releases the mapping. The tensor view and every window derived from
// it are invalid afterwards. Safe to call twice; not safe concurrently with
// readers.
func (m *Mapped) Close() error {
	if m.h == nil {
		return nil
	}
	h := m.h
	m.h = nil
	m.t = nil
	runtime.SetFinalizer(h, nil)
	return h.release()
}

// Stream returns a WindowStream over the mapped tensor with windows capped
// at windowNNZ non-zeros (file chunks are merged up to the cap; a single
// stored chunk larger than the cap stays whole — sub-tensor boundaries
// cannot be split). windowNNZ <= 0 streams the whole tensor as one window.
// The file must be sorted. Open skipped index validation, so every window
// the stream yields is bounds-checked against the mode sizes as its pages
// fault in: a corrupt file errors instead of producing garbage output.
func (m *Mapped) Stream(windowNNZ int) (*WindowStream, error) {
	if !m.sorted {
		return nil, fmt.Errorf("coo: %s: cannot stream an unsorted tensor file", m.path)
	}
	return &WindowStream{t: m.t, bounds: groupCapped(m.chunks, windowNNZ), validate: true}, nil
}

// WindowStream iterates sorted, sub-tensor-aligned windows of a tensor.
// Each window is a zero-allocation slice view into the backing tensor —
// pages of an mmap'd source fault in as the stream advances and are
// reclaimable once the driver moves on.
type WindowStream struct {
	t      *Tensor
	bounds []int
	next   int
	// validate bounds-checks each window's indices in Next: the slice of
	// the full-tensor validation that mapping defers. Resident tensors
	// were validated when they were built and skip the pass.
	validate bool
}

// StreamSorted builds a WindowStream over an in-memory sorted tensor with
// windows capped at windowNNZ non-zeros, cut only at mode-0 index changes.
// windowNNZ <= 0 yields the whole tensor as one window without scanning it.
// The caller guarantees t is sorted (it typically just sorted it).
func StreamSorted(t *Tensor, windowNNZ int) *WindowStream {
	if windowNNZ <= 0 {
		return &WindowStream{t: t, bounds: []int{0, t.NNZ()}}
	}
	return &WindowStream{t: t, bounds: groupCapped(t.ChunkBoundaries(1), windowNNZ)}
}

// groupCapped merges adjacent chunks [b[i], b[i+1]) into windows of at most
// limit non-zeros, keeping every output boundary one of the input
// boundaries. A single chunk above the limit stays whole. limit <= 0 yields
// one window.
func groupCapped(b []int, limit int) []int {
	if len(b) < 2 {
		return b
	}
	if limit <= 0 {
		return []int{b[0], b[len(b)-1]}
	}
	out := make([]int, 1, 8)
	out[0] = b[0]
	for i := 1; i < len(b); i++ {
		if b[i]-out[len(out)-1] > limit && b[i-1] != out[len(out)-1] {
			out = append(out, b[i-1])
		}
	}
	return append(out, b[len(b)-1])
}

// Dims returns the mode sizes of the streamed tensor.
func (s *WindowStream) Dims() []uint64 { return s.t.Dims }

// NNZ returns the total non-zero count across all windows.
func (s *WindowStream) NNZ() int { return s.t.NNZ() }

// Windows returns how many windows the stream yields.
func (s *WindowStream) Windows() int { return len(s.bounds) - 1 }

// Next returns the next window as a read-only view, or (nil, nil) when the
// stream is exhausted.
func (s *WindowStream) Next() (*Tensor, error) {
	if s.next+1 >= len(s.bounds) {
		return nil, nil
	}
	lo, hi := s.bounds[s.next], s.bounds[s.next+1]
	s.next++
	w := &Tensor{
		Dims: s.t.Dims,
		Inds: make([][]uint32, len(s.t.Inds)),
		Vals: s.t.Vals[lo:hi],
	}
	for m := range s.t.Inds {
		w.Inds[m] = s.t.Inds[m][lo:hi]
	}
	if s.validate {
		if err := checkWindow(w); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// checkWindow bounds-checks one window's indices against the mode sizes.
func checkWindow(w *Tensor) error {
	for m, col := range w.Inds {
		d := w.Dims[m]
		for _, v := range col {
			if uint64(v) >= d {
				return &FormatError{Section: fmt.Sprintf("mode %d indices", m),
					Msg: fmt.Sprintf("streamed window holds index %d, out of range for size %d", v, d)}
			}
		}
	}
	return nil
}

// Reset rewinds the stream to the first window.
func (s *WindowStream) Reset() error {
	s.next = 0
	return nil
}
