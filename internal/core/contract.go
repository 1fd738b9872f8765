package core

import (
	"context"
	"fmt"
	"time"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
	"sparta/internal/obs"
	"sparta/internal/parallel"
	"sparta/internal/sortx"
)

// Options configures a contraction. The zero value is the paper's default
// configuration of Algorithm 2 except for the algorithm selector: Sparta
// (HtY+HtA), all cores, sorted output, cloned inputs.
type Options struct {
	// Algorithm selects the SpTC variant. NOTE: the zero value is AlgSPA
	// (to match EXPERIMENT_MODES numbering); use AlgSparta for Sparta.
	Algorithm Algorithm
	// Threads is the worker count for every parallel stage; <1 means
	// GOMAXPROCS.
	Threads int
	// SkipOutputSort leaves Z unsorted (stage ⑤ is on by default, as in
	// the paper's evaluation).
	SkipOutputSort bool
	// UnfusedWriteback restores the seed writeback: gather Zlocal in worker
	// order, then run the full stage-⑤ sort over Z. The default (false)
	// fuses ordering into the gather — Zlocal runs scatter to f-ordered
	// destinations and each run is radix-sorted by LN(Fy) in place, so Z
	// comes out sorted and stage ⑤ is a no-op. Kept selectable for the
	// sptc-bench -exp sort duel and as a belt-and-braces escape hatch.
	UnfusedWriteback bool
	// InPlace lets the algorithm permute and sort the caller's tensors
	// instead of cloning them, saving one copy of each input.
	InPlace bool
	// Kernel selects the hash-kernel layout family (KernelFlat, the
	// default, or KernelChained — the seed implementation). Both produce
	// identical outputs; the flat kernels are the measured-faster path
	// (see BENCH_1.json and sptc-bench -exp kernels).
	Kernel Kernel
	// BucketsHtY overrides the HtY bucket/slot count (0 = kernel default:
	// next power of two >= nnz_Y chained, >= 2*nnz_Y flat). Rounded up to
	// a power of two; the flat kernel additionally clamps it above nnz_Y
	// so its open-addressed probes terminate.
	BucketsHtY int
	// TwoPassHtY selects the lock-free two-pass construction of the
	// *chained* HtY instead of the bucket-locked parallel build
	// (KernelChained only; the flat kernel is always two-pass and
	// lock-free). The results are identical; the two-pass build avoids
	// lock contention on tensors with few distinct contract keys at the
	// cost of an extra pass over Y.
	TwoPassHtY bool
	// Planner enables chain-level contraction-order planning
	// (PlannerAuto). Only EvalChain consults it; single contractions
	// accept and ignore the field so one Options value can drive both.
	Planner Planner
	// MaxOutputNNZ aborts the contraction with an error when the output
	// would exceed this many non-zeros (0 = unlimited). SpTC outputs can
	// dwarf both inputs (the paper's challenge 3); the bound is checked
	// after the compute stages, before Z is materialized.
	MaxOutputNNZ int
	// Tracer, when non-nil, records stage spans and per-worker chunk spans
	// for Chrome trace-event export (sptc-bench -trace). Nil costs nothing.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives counters, gauges, and distribution
	// histograms (probe lengths, worker load, Zlocal growth) after each
	// contraction. Nil costs one predictable branch per hot-loop record.
	Metrics *obs.Registry
}

// Contract computes Z = X ×_{cmodesX}^{cmodesY} Y with the selected
// algorithm: contract mode cmodesX[k] of X against cmodesY[k] of Y. The
// output modes are X's free modes (original order) followed by Y's free
// modes. A fully contracted result is returned as a 1-mode, size-1 tensor
// holding the scalar at index 0.
func Contract(x, y *coo.Tensor, cmodesX, cmodesY []int, opt Options) (*coo.Tensor, *Report, error) {
	return ContractCtx(context.Background(), x, y, cmodesX, cmodesY, opt)
}

// ContractCtx is Contract with cancellation: the parallel stage loops
// checkpoint ctx between chunk claims, so a canceled context or an expired
// deadline stops the contraction at the next chunk boundary and returns
// ctx.Err(). Partially computed state is discarded. A Background context
// costs nothing on the hot path.
func ContractCtx(ctx context.Context, x, y *coo.Tensor, cmodesX, cmodesY []int, opt Options) (*coo.Tensor, *Report, error) {
	p, err := newPlan(x, y, cmodesX, cmodesY)
	if err != nil {
		return nil, nil, err
	}
	rep, err := checkOptions(opt, x.NNZ(), y.NNZ())
	if err != nil {
		return nil, nil, err
	}
	if opt.Algorithm == AlgTwoPhase {
		z, err := contractTwoPhase(ctx, p, opt, rep)
		if err != nil {
			return nil, nil, err
		}
		return z, rep, nil
	}
	return contractMain(ctx, p, nil, opt, rep)
}

// checkOptions validates the algorithm/kernel selectors and builds the
// Report skeleton shared by the one-shot and prepared entry points.
func checkOptions(opt Options, nnzX, nnzY int) (*Report, error) {
	switch opt.Algorithm {
	case AlgSPA, AlgCOOHtA, AlgSparta, AlgTwoPhase:
	default:
		return nil, errBadAlgorithm(opt.Algorithm)
	}
	switch opt.Kernel {
	case KernelFlat, KernelChained:
	default:
		return nil, errBadKernel(opt.Kernel)
	}
	switch opt.Planner {
	case PlannerOff, PlannerAuto:
	default:
		return nil, fmt.Errorf("core: unknown planner mode %d", int(opt.Planner))
	}
	threads := opt.Threads
	if threads < 1 {
		threads = parallel.DefaultThreads()
	}
	return &Report{
		Algorithm: opt.Algorithm,
		Kernel:    opt.Kernel,
		Threads:   threads,
		NNZX:      nnzX,
		NNZY:      nnzY,
	}, nil
}

// traceTarget resolves where stage spans go: a request trace in ctx wins
// over the bench-level Options.Tracer, putting the spans on the request's
// private track so concurrent requests never interleave their span trees.
// reqMode additionally suppresses per-worker chunk spans — worker tracks
// are only meaningful for the single-run bench timeline.
func traceTarget(ctx context.Context, opt Options) (tr *obs.Tracer, track int, reqMode bool) {
	if rt := obs.ReqFrom(ctx); rt != nil {
		return rt.Tracer(), rt.Track(), true
	}
	return opt.Tracer, 0, false
}

// contractMain runs stage ① for the Zlocal-buffered algorithms — permute
// and sort X, then build HtY (or reuse prep's table, or sort COO Y for the
// baselines) — and hands X to the window driver as one window. When prep is
// non-nil the COO→HtY conversion is skipped entirely: the prepared table is
// probed instead and the report is marked HtYReused (no "hty build" span is
// opened).
func contractMain(ctx context.Context, p *plan, prep *PreparedY, opt Options, rep *Report) (*coo.Tensor, *Report, error) {
	threads := rep.Threads

	// Spans pair with the stage timers; error paths leave a span un-ended,
	// which the tracer simply never records (End is what appends events).
	tr, track, _ := traceTarget(ctx, opt)
	spInput := tr.Start("input processing", track)
	t0 := time.Now()
	xw := p.x
	if !opt.InPlace {
		xw = xw.Clone()
	}
	if err := xw.Permute(p.permX); err != nil {
		return nil, nil, err
	}
	spXSort := tr.Start("x sort", track)
	rep.XSort = xw.SortWith(threads, coo.SortAuto)
	spXSort.End()
	rep.BytesX = xw.Bytes()

	d := &driver{p: p, pr: prep, opt: opt, rep: rep}
	switch {
	case prep != nil:
		// The driver probes the prepared table.
	case opt.Algorithm == AlgSparta:
		var err error
		if d.hty, err = buildYTable(ctx, p, opt, threads, rep); err != nil {
			return nil, nil, err
		}
	default:
		yw := p.y
		if !opt.InPlace {
			yw = yw.Clone()
		}
		if err := yw.Permute(p.permY); err != nil {
			return nil, nil, err
		}
		yw.Sort(threads)
		ptrCY, err := yw.SubPtr(p.ncm)
		if err != nil {
			return nil, nil, err
		}
		d.yw, d.ptrCY = yw, ptrCY
		rep.BytesY = yw.Bytes()
		rep.DistinctKeysY = len(ptrCY) - 1
		rep.MaxSubNNZY = coo.MaxSubNNZ(ptrCY)
	}
	addStage(rep, StageInput, time.Since(t0))
	spInput.End()

	z, err := d.run(ctx, coo.StreamSorted(xw, 0), &heapSink{dims: p.zdims})
	if err != nil {
		return nil, nil, err
	}
	return z, rep, nil
}

// driver is the one execution driver behind every Zlocal-buffered run: the
// one-shot and prepared paths hand it X as a single window, ContractStream
// as many. Exactly one of pr, hty, yw is the Y side the compute stages
// probe: a prepared table, a freshly built one, or the baselines' sorted
// COO Y with its contract-key pointers.
type driver struct {
	p     *plan
	pr    *PreparedY
	hty   hashtab.YTable
	yw    *coo.Tensor
	ptrCY []int
	opt   Options
	rep   *Report
}

// run walks xs window by window. Each window runs stages ②–④ chunked over
// its sub-tensors, checks MaxOutputNNZ before any of its Z is materialized,
// and gathers its Zlocal into one run for sink. Windows end only at mode-0
// index changes, so the fused gather's sorted runs are disjoint and
// ascending and their concatenation is the sorted Z. The unfused writeback
// (one-window schedules only) leaves its run in worker order for the
// stage-⑤ sort.
func (d *driver) run(ctx context.Context, xs XStream, sink zSink) (*coo.Tensor, error) {
	p, opt, rep := d.p, d.opt, d.rep
	threads := rep.Threads
	hty := d.hty
	if d.pr != nil {
		hty = d.pr.hty
		rep.HtYReused = true
		d.pr.fillReport(rep)
	}
	tr, track, reqMode := traceTarget(ctx, opt)
	fused := !opt.UnfusedWriteback
	ws := makeWorkers(threads, p, opt)
	total := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		win, err := xs.Next()
		if err != nil {
			return nil, err
		}
		if win == nil {
			break
		}
		if win.NNZ() == 0 {
			continue
		}
		ptrFX, err := win.SubPtr(p.nfx)
		if err != nil {
			return nil, err
		}
		rep.NF += len(ptrFX) - 1
		if ms := coo.MaxSubNNZ(ptrFX); ms > rep.MaxSubNNZX {
			rep.MaxSubNNZX = ms
		}
		addStage(rep, StageInput, time.Since(t0))

		// ②③④ Computation; chunk < 1 defers the chunk size to
		// ForChunked's own heuristic (the single source of truth for
		// chunking).
		spCompute := tr.Start("compute", track)
		cerr := parallel.ForChunkedWorkCtx(ctx, threads, len(ptrFX)-1, 0, int64(win.NNZ()), func(tid, lo, hi int) {
			var sp obs.Span
			if !reqMode {
				sp = tr.Start("subtensor chunk", tid+1)
			}
			w := ws[tid]
			for f := lo; f < hi; f++ {
				switch opt.Algorithm {
				case AlgSparta:
					w.subSparta(p, win, hty, ptrFX, f)
				case AlgCOOHtA:
					w.subCOOHtA(p, win, d.yw, ptrFX, d.ptrCY, f)
				case AlgSPA:
					w.subSPA(p, win, d.yw, ptrFX, d.ptrCY, f)
				}
			}
			sp.End()
		})
		spCompute.End()
		if cerr != nil {
			return nil, cerr
		}
		for _, w := range ws {
			total += len(w.z.vals)
		}
		if opt.MaxOutputNNZ > 0 && total > opt.MaxOutputNNZ {
			return nil, errOutputTooLarge{total, opt.MaxOutputNNZ}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// ④ Writeback: gather the window's thread-local Zlocal into a run.
		spGather := tr.Start("writeback gather", track)
		t0 = time.Now()
		var zrun *coo.Tensor
		if fused {
			zrun, err = gatherFused(p, win, ptrFX, ws, rep)
		} else {
			zrun, err = gather(p, win, ptrFX, ws, threads)
		}
		for _, w := range ws {
			w.z.reset()
		}
		if err != nil {
			return nil, err
		}
		addStage(rep, StageWrite, time.Since(t0))
		spGather.End()
		if err := sink.append(zrun); err != nil {
			return nil, err
		}
		if rep.Streamed {
			rep.Windows++
		}
	}
	mergeWorkerStats(rep, ws)

	spM := tr.Start("z merge", track)
	t0 := time.Now()
	z, err := sink.finish()
	if err != nil {
		return nil, err
	}
	addStage(rep, StageWrite, time.Since(t0))
	spM.End()
	rep.NNZZ = z.NNZ()
	rep.BytesZ = z.Bytes()
	if p.nfy > 0 {
		rep.EstBytesHtAPerTh = hashtab.EstimateHtABytes(
			hashtab.NextPow2(rep.MaxSubNNZY), rep.MaxSubNNZX, rep.MaxSubNNZY, p.nfy)
	}

	// ⑤ Output sorting: the fused gather already produced Z in lexicographic
	// order (f-ordered scatter + per-run LN(Fy) sorts), so the stage runs
	// only on the unfused path. The residual per-run sort time is reported
	// separately as rep.SubsortWall, charged to StageWrite where it ran.
	if !opt.SkipOutputSort && !fused {
		spSort := tr.Start("output sort", track)
		t0 = time.Now()
		z.Sort(threads)
		addStage(rep, StageSort, time.Since(t0))
		spSort.End()
	}
	if d.pr != nil && d.pr.uses.Add(1) == 1 {
		// First use: this run conceptually paid for the build, so report
		// it the way the one-shot path does.
		rep.HtYReused = false
		rep.HtYBuild = d.pr.build
	}
	publishMetrics(opt.Metrics, rep, ws, nil)
	return z, nil
}

// addStage charges a sequential section to one stage: wall and CPU time
// are the same span.
func addStage(rep *Report, s Stage, d time.Duration) {
	rep.StageWall[s] += d
	rep.StageCPU[s] += d
}

// errBadAlgorithm keeps the error text alongside the enum.
type errBadAlgorithm Algorithm

func (e errBadAlgorithm) Error() string {
	return "core: unknown algorithm " + Algorithm(e).String()
}

// errBadKernel mirrors errBadAlgorithm for the kernel selector.
type errBadKernel Kernel

func (e errBadKernel) Error() string {
	return "core: unknown kernel " + Kernel(e).String()
}

// buildYTable runs the selected COO→HtY conversion kernel and records the
// table stats plus the build-only wall time (rep.HtYBuild) so kernel duels
// compare exactly the hash-table work, not X's permute+sort. The two-pass
// chained build threads ctx (its bucket assembly checkpoints between chunk
// claims); the other builds are checkpointed by contractMain around the
// call.
func buildYTable(ctx context.Context, p *plan, opt Options, threads int, rep *Report) (hashtab.YTable, error) {
	tr, track, _ := traceTarget(ctx, opt)
	sp := tr.Start("hty build", track)
	defer sp.End()
	t0 := time.Now()
	var hty hashtab.YTable
	if opt.Kernel == KernelChained {
		if opt.TwoPassHtY {
			var err error
			hty, err = hashtab.BuildHtY2PCtx(ctx, p.y, p.cmodesY, p.fmodesY, p.radC, p.radFY, opt.BucketsHtY, threads)
			if err != nil {
				return nil, err
			}
		} else {
			hty = hashtab.BuildHtY(p.y, p.cmodesY, p.fmodesY, p.radC, p.radFY, opt.BucketsHtY, threads)
		}
	} else {
		hty = hashtab.BuildHtYFlat(p.y, p.cmodesY, p.fmodesY, p.radC, p.radFY, opt.BucketsHtY, threads)
	}
	rep.HtYBuild = time.Since(t0)
	rep.BytesY = p.y.Bytes()
	rep.BytesHtY = hty.Bytes()
	rep.BucketsHtY = hty.NumBuckets()
	rep.DistinctKeysY = hty.NumKeys()
	rep.MaxSubNNZY = hty.MaxItemLen()
	rep.EstBytesHtY = hashtab.EstimateHtYBytes(p.y.NNZ(), p.y.Order(), hty.NumBuckets())
	return hty, nil
}

// gather allocates Z exactly (the sum of all Zlocal sizes is known — the
// paper's answer to the unknown-output-size challenge) and copies every
// thread's buffer into a disjoint range in parallel.
func gather(p *plan, xw *coo.Tensor, ptrFX []int, ws []*worker, threads int) (*coo.Tensor, error) {
	counts := make([]int, len(ws))
	for i, w := range ws {
		counts[i] = len(w.z.vals)
	}
	offsets, total := parallel.PrefixSum(counts)
	z, err := coo.New(p.zdims, 0)
	if err != nil {
		return nil, err
	}
	for m := range z.Inds {
		z.Inds[m] = make([]uint32, total)
	}
	z.Vals = make([]float64, total)

	xCols := xw.Inds[:p.nfx]
	parallel.For(len(ws), len(ws), func(_, lo, hi int) {
		buf := make([]uint32, p.nfy)
		for wi := lo; wi < hi; wi++ {
			w := ws[wi]
			pos := offsets[wi]
			k := 0
			for _, sub := range w.z.subs {
				xAt := ptrFX[sub.f]
				for j := 0; j < int(sub.n); j++ {
					for m := 0; m < p.nfx; m++ {
						z.Inds[m][pos] = xCols[m][xAt]
					}
					p.radFY.Decode(w.z.lns[k], buf)
					for m := 0; m < p.nfy; m++ {
						z.Inds[p.nfx+m][pos] = buf[m]
					}
					z.Vals[pos] = w.z.vals[k]
					pos++
					k++
				}
			}
		}
	})
	return z, nil
}

// gatherFused is the sort-fused writeback: it allocates Z exactly like
// gather, but scatters each sub-tensor's run to a destination computed from
// the sub-tensor id f — a prefix sum over per-f output counts — instead of
// worker order, after radix-sorting the run by LN(Fy) in place.
//
// Why that yields a fully sorted Z: X is sorted, so ascending f enumerates
// the distinct free-X tuples in lexicographic order; within one f the free-X
// columns are constant and the accumulator keys (unique per run) sort the
// free-Y columns. Every f is processed by exactly one worker, so the per-f
// counts never collide. Stage ⑤ on this path is the per-run sorts, reported
// as rep.SubsortWall (max across workers, as stage walls are).
func gatherFused(p *plan, xw *coo.Tensor, ptrFX []int, ws []*worker, rep *Report) (*coo.Tensor, error) {
	nf := len(ptrFX) - 1
	counts := make([]int, nf)
	for _, w := range ws {
		for _, sub := range w.z.subs {
			counts[sub.f] = int(sub.n)
		}
	}
	offsets, total := parallel.PrefixSum(counts)
	z, err := coo.New(p.zdims, 0)
	if err != nil {
		return nil, err
	}
	for m := range z.Inds {
		z.Inds[m] = make([]uint32, total)
	}
	z.Vals = make([]float64, total)

	var maxKey uint64
	if c := p.radFY.Card(); c > 0 {
		maxKey = c - 1
	}
	xCols := xw.Inds[:p.nfx]
	zIndsX := z.Inds[:p.nfx]
	zIndsY := z.Inds[p.nfx:]
	zVals := z.Vals
	radFY := p.radFY
	// Per-worker scratch lives out here so the scatter closure itself stays
	// allocation-free; the -perf lint gate holds the closure at zero heap
	// escapes and zero bounds checks. The guards on impossible conditions
	// below (runs tiling Zlocal, offsets tiling [0,total)) exist for the
	// bounds-check prover and replace the compiler's implicit panics.
	bufs := make([][]uint32, len(ws))
	for i := range bufs {
		bufs[i] = make([]uint32, p.nfy)
	}
	sks := make([][]uint64, len(ws))
	svs := make([][]float64, len(ws))
	subsortNS := make([]int64, len(ws))
	parallel.For(len(ws), len(ws), func(_, wlo, whi int) {
		if wlo < 0 || whi > len(ws) || whi > len(bufs) ||
			whi > len(sks) || whi > len(svs) || whi > len(subsortNS) {
			return // impossible: parallel.For splits [0,len(ws))
		}
		for wi := wlo; wi < whi; wi++ {
			w := ws[wi]
			buf := bufs[wi]
			// Pass 1: sort every run by LN(Fy). Timed as a block so the
			// residual stage-⑤ cost is exact without per-run clock calls.
			// Runs are mostly tiny (output nnz over nf is often ~2), so
			// one- and two-element runs are handled inline and longer runs
			// only enter SortPairs when a cheap sweep finds them unsorted
			// (HtY item lists frequently come out of the build key-ordered).
			t0 := time.Now()
			lns, vals := w.z.lns, w.z.vals
			k := 0
			for _, sub := range w.z.subs {
				n := int(sub.n)
				end := k + n
				if n < 0 || k < 0 || end < k || end > len(lns) || end > len(vals) {
					break // impossible: runs tile Zlocal exactly
				}
				runK := lns[k:end]
				runV := vals[k:end]
				switch {
				case n < 2:
				case n == 2:
					if runK[0] > runK[1] {
						runK[0], runK[1] = runK[1], runK[0]
						runV[0], runV[1] = runV[1], runV[0]
					}
				default:
					sortx.SortPairs(runK, runV, maxKey, &sks[wi], &svs[wi])
				}
				k = end
			}
			subsortNS[wi] = int64(time.Since(t0))
			// Pass 2: scatter the sorted runs to their f-ordered slots.
			k = 0
			for _, sub := range w.z.subs {
				n := int(sub.n)
				f := int(sub.f)
				end := k + n
				if n < 0 || k < 0 || end < k || end > len(lns) || end > len(vals) ||
					f < 0 || f >= len(offsets) || f >= len(ptrFX) {
					break // impossible: subs reference valid sub-tensors
				}
				runK := lns[k:end]
				runV := vals[k:end]
				pos := offsets[f]
				xAt := ptrFX[f]
				zend := pos + n
				if pos < 0 || zend < pos || zend > len(zVals) {
					break // impossible: per-f offsets tile [0,total)
				}
				copy(zVals[pos:zend], runV)
				// Free-X columns are constant across one run.
				for m, col := range xCols {
					if m >= len(zIndsX) || xAt < 0 || xAt >= len(col) {
						continue // impossible: X columns span nnz_X
					}
					v := col[xAt]
					dst := zIndsX[m]
					if pos < 0 || zend < pos || zend > len(dst) {
						continue // impossible: Z columns span total
					}
					run := dst[pos:zend]
					for j := range run {
						run[j] = v
					}
				}
				// Free-Y columns decode per item.
				for j, ln := range runK {
					radFY.Decode(ln, buf)
					zp := pos + j
					for m, v := range buf {
						if m >= len(zIndsY) {
							continue // impossible: buf has one entry per free-Y mode
						}
						dst := zIndsY[m]
						if uint(zp) >= uint(len(dst)) {
							continue // impossible: Z columns span total
						}
						dst[zp] = v
					}
				}
				k = end
			}
		}
	})
	for _, ns := range subsortNS {
		if d := time.Duration(ns); d > rep.SubsortWall {
			rep.SubsortWall = d
		}
	}
	return z, nil
}

// mergeWorkerStats folds per-thread timing and counters into the report:
// wall = max across threads (the stages run concurrently), cpu = sum.
func mergeWorkerStats(rep *Report, ws []*worker) {
	for _, w := range ws {
		walls := [...]time.Duration{
			StageSearch: time.Duration(w.searchNS),
			StageAccum:  time.Duration(w.accumNS),
			StageWrite:  time.Duration(w.writeNS),
		}
		for s := StageSearch; s <= StageWrite; s++ {
			if walls[s] > rep.StageWall[s] {
				rep.StageWall[s] = walls[s]
			}
			rep.StageCPU[s] += walls[s]
		}
		rep.SearchSteps += w.searchSteps
		rep.ProbesHtY += w.probesHtY
		rep.HitsY += w.hits
		rep.MissY += w.miss
		rep.Products += w.products
		if w.hta != nil {
			rep.ProbesHtA += w.hta.Probes
			rep.AccumHits += w.hta.Hits
			rep.AccumMiss += w.hta.Misses
			b := w.hta.Bytes()
			rep.BytesHtA += b
			if b > rep.BytesHtAPerThr {
				rep.BytesHtAPerThr = b
			}
		}
		if w.htaF != nil {
			rep.ProbesHtA += w.htaF.Probes
			rep.AccumHits += w.htaF.Hits
			rep.AccumMiss += w.htaF.Misses
			b := w.htaF.Bytes()
			rep.BytesHtA += b
			if b > rep.BytesHtAPerThr {
				rep.BytesHtAPerThr = b
			}
		}
		if w.spa != nil {
			rep.SPACompares += w.spa.Compares
			rep.AccumHits += w.spaHits
			rep.AccumMiss += w.spaMiss
			b := w.spa.Bytes()
			rep.BytesHtA += b
			if b > rep.BytesHtAPerThr {
				rep.BytesHtAPerThr = b
			}
		}
		rep.BytesZLocal += w.z.bytes()
	}
}
