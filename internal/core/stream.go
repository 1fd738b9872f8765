package core

import (
	"context"
	"fmt"

	"sparta/internal/coo"
	"sparta/internal/parallel"
)

// XStream yields sorted X windows in contraction mode order (free modes
// first, contract modes last). Implementations: coo.WindowStream (both the
// mmap-backed and in-memory variants) — every window boundary must be a
// mode-0 index change, which is what makes per-window outputs disjoint.
type XStream interface {
	// Dims returns the streamed tensor's mode sizes, already permuted to
	// contraction order.
	Dims() []uint64
	// NNZ returns the total non-zero count across all windows.
	NNZ() int
	// Next returns the next sorted window view, or (nil, nil) at the end.
	// Every index of a returned window must lie inside Dims; sources that
	// skipped validation at open (mmap'd files) check each window here.
	Next() (*coo.Tensor, error)
	// Reset rewinds the stream to the first window.
	Reset() error
}

// NewTensorStream adapts an in-memory X to an XStream: permute to
// contraction order (free modes first, cmodesX last), sort, and cut into
// windows of at most windowNNZ non-zeros at mode-0 boundaries. This is the
// serving path's degrade tier — X is already resident, but streaming bounds
// the HtA/Zlocal/Z working set to one window. inPlace reuses the caller's
// tensor like Options.InPlace does.
func NewTensorStream(x *coo.Tensor, cmodesX []int, windowNNZ, threads int, inPlace bool) (XStream, error) {
	if x == nil {
		return nil, fmt.Errorf("core: nil X tensor")
	}
	if len(cmodesX) == 0 {
		return nil, fmt.Errorf("core: contraction needs at least one contract-mode pair")
	}
	if len(cmodesX) >= x.Order() {
		return nil, fmt.Errorf("core: streamed contraction needs at least one free X mode")
	}
	inX, err := modeSet(x.Order(), cmodesX, "X")
	if err != nil {
		return nil, err
	}
	perm := make([]int, 0, x.Order())
	for m := 0; m < x.Order(); m++ {
		if !inX[m] {
			perm = append(perm, m)
		}
	}
	perm = append(perm, cmodesX...)
	xw := x
	if !inPlace {
		xw = x.Clone()
	}
	if err := xw.Permute(perm); err != nil {
		return nil, err
	}
	if threads < 1 {
		threads = parallel.DefaultThreads()
	}
	xw.SortWith(threads, coo.SortAuto)
	return coo.StreamSorted(xw, windowNNZ), nil
}

// StreamOptions configures ContractStream. The embedded Options mean the
// same as everywhere else (Algorithm must be AlgSparta and Kernel must
// match the prepared table).
type StreamOptions struct {
	Options
	// SpillZ stages the output through a file-backed RunSpool instead of
	// heap, for contractions whose Z itself exceeds the DRAM budget. The
	// returned tensor is then an mmap view whose pages the kernel may
	// evict (hetmem.Residency.SpillZ decides this from the budget).
	SpillZ bool
	// SpillDir hosts the spool and materialized output files when SpillZ
	// is set ("" = the default temp directory).
	SpillDir string
}

// ContractStream computes Z = X ×^{prepared} Y walking X window by window:
// only HtY, one window of X, and one window's accumulators are ever hot at
// once — the out-of-core execution tier that turns the paper's
// heterogeneous-memory placement priority into an actual capability.
//
// Output is bitwise identical to PreparedY.Contract with the same options:
// both run the same window driver (the prepared path hands it X as one
// window), window boundaries fall only on mode-0 index changes, so no
// free-prefix sub-tensor is ever split, and the per-window sorted runs are
// disjoint and ascending — their concatenation IS the in-memory output, and
// stage ⑤ stays dead.
//
// The contraction must keep at least one free X mode; a fully contracted X
// has a single sub-tensor spanning everything and cannot be windowed.
func ContractStream(ctx context.Context, xs XStream, pr *PreparedY, opt StreamOptions) (*coo.Tensor, *Report, error) {
	if xs == nil {
		return nil, nil, fmt.Errorf("core: nil X stream")
	}
	if pr == nil {
		return nil, nil, fmt.Errorf("core: nil prepared Y")
	}
	if err := pr.accepts(opt.Options); err != nil {
		return nil, nil, err
	}
	dims := xs.Dims()
	ncm := len(pr.cdims)
	nfx := len(dims) - ncm
	if nfx < 1 {
		return nil, nil, fmt.Errorf("core: streamed contraction needs at least one free X mode (fully contracted X must run in memory)")
	}
	for k := 0; k < ncm; k++ {
		if dims[nfx+k] != pr.cdims[k] {
			return nil, nil, fmt.Errorf("core: contract pair %d: streamed X mode %d has size %d but prepared Y mode has size %d",
				k, nfx+k, dims[nfx+k], pr.cdims[k])
		}
	}
	p := &plan{ncm: ncm, nfx: nfx, nfy: len(pr.fydims), radC: pr.radC, radFY: pr.radFY}
	p.zdims = append(append(make([]uint64, 0, nfx+p.nfy), dims[:nfx]...), pr.fydims...)

	rep, err := checkOptions(opt.Options, xs.NNZ(), pr.nnzY)
	if err != nil {
		return nil, nil, err
	}
	rep.Streamed = true
	rep.BytesX = uint64(xs.NNZ()) * uint64(4*len(dims)+8)

	var sink zSink
	if opt.SpillZ {
		if sink, err = newSpillSink(opt.SpillDir, p.zdims); err != nil {
			return nil, nil, err
		}
	} else {
		sink = &heapSink{dims: p.zdims}
	}
	defer sink.abort()

	// Concatenating windows needs sorted runs, so streamed runs always
	// take the sort-fused writeback.
	o := opt.Options
	o.UnfusedWriteback = false
	d := &driver{p: p, pr: pr, opt: o, rep: rep}
	z, err := d.run(ctx, xs, sink)
	if err != nil {
		return nil, nil, err
	}
	rep.SpilledZ = opt.SpillZ
	return z, rep, nil
}

// zSink collects the per-window sorted output runs. abort is idempotent and
// safe after finish.
type zSink interface {
	append(run *coo.Tensor) error
	finish() (*coo.Tensor, error)
	abort()
}

// heapSink accumulates runs in memory and concatenates them at the end —
// the in-memory paths (one run, adopted without a copy) and the streamed
// tier for outputs that fit the budget even when X does not.
type heapSink struct {
	dims []uint64
	runs []*coo.Tensor
}

func (s *heapSink) append(run *coo.Tensor) error {
	s.runs = append(s.runs, run)
	return nil
}

func (s *heapSink) finish() (*coo.Tensor, error) {
	return coo.MergeRuns(s.dims, s.runs)
}

func (s *heapSink) abort() { s.runs = nil }

// spillSink stages runs through a file-backed RunSpool and hands back an
// mmap view, so Z is never heap-resident.
type spillSink struct {
	spool *coo.RunSpool
	done  bool
}

func newSpillSink(dir string, dims []uint64) (*spillSink, error) {
	sp, err := coo.NewRunSpool(dir, dims)
	if err != nil {
		return nil, err
	}
	return &spillSink{spool: sp}, nil
}

func (s *spillSink) append(run *coo.Tensor) error { return s.spool.Append(run) }

func (s *spillSink) finish() (*coo.Tensor, error) {
	s.done = true
	m, err := s.spool.Materialize()
	if err != nil {
		return nil, err
	}
	return m.Tensor(), nil
}

func (s *spillSink) abort() {
	if !s.done {
		_ = s.spool.Close()
	}
}
