package core

import (
	"context"
	"time"

	"sparta/internal/coo"
	"sparta/internal/invariant"
	"sparta/internal/obs"
	"sparta/internal/parallel"
)

// This file implements the two-phase (symbolic + numeric) SpTC that §3.2 of
// the paper describes as the traditional SpGEMM answer to the
// unknown-output-size problem [47] — and argues against: "every SpTC is
// attached to both a symbolic phase and SpTC computation, which is very
// expensive", particularly because applications compute each SpTC only once
// in a long contraction sequence, so the symbolic work is never amortized.
//
// The symbolic phase runs the full index-search + accumulation structure
// with keys only (no floating-point values) to count the exact output
// non-zeros per X sub-tensor; the numeric phase then recomputes the
// products and writes them directly into the exactly-allocated Z — no
// thread-local Zlocal buffers and no gather, the one advantage two-phase
// has over Sparta's dynamic approach. The ablation (sptc-bench -exp
// twophase) measures the trade both ways.

// contractTwoPhase runs Z = X × Y with HtY + HtA data structures but
// two-phase output allocation. Inputs are pre-validated by Contract. Both
// parallel phases checkpoint ctx between chunk claims.
func contractTwoPhase(ctx context.Context, p *plan, opt Options, rep *Report) (*coo.Tensor, error) {
	threads := rep.Threads
	tr, track, reqMode := traceTarget(ctx, opt)

	// ① Input processing — identical to Sparta's.
	spInput := tr.Start("input processing", track)
	t0 := time.Now()
	xw := p.x
	if !opt.InPlace {
		xw = xw.Clone()
	}
	if err := xw.Permute(p.permX); err != nil {
		return nil, err
	}
	spXSort := tr.Start("x sort", track)
	rep.XSort = xw.SortWith(threads, coo.SortAuto)
	spXSort.End()
	ptrFX, err := xw.SubPtr(p.nfx)
	if err != nil {
		return nil, err
	}
	rep.NF = len(ptrFX) - 1
	rep.MaxSubNNZX = coo.MaxSubNNZ(ptrFX)
	rep.BytesX = xw.Bytes()

	hty, err := buildYTable(ctx, p, opt, threads, rep)
	if err != nil {
		return nil, err
	}
	rep.StageWall[StageInput] = time.Since(t0)
	rep.StageCPU[StageInput] = rep.StageWall[StageInput]
	spInput.End()

	// chunk < 1 defers the chunk size to ForChunked's own heuristic.
	nf := rep.NF
	cCols := xw.Inds[p.nfx:]

	// --- Symbolic phase: count exact output non-zeros per sub-tensor ----
	// The symbolic accumulators follow the kernel selector like the
	// numeric ones (makeWorkers); symWorkers reuses that switch.
	spSym := tr.Start("symbolic phase", track)
	t0 = time.Now()
	counts := make([]int, nf)
	symWorkers := makeWorkers(threads, p, Options{
		Algorithm: AlgSparta, Kernel: opt.Kernel, Metrics: opt.Metrics,
	})
	symErr := parallel.ForChunkedWorkCtx(ctx, threads, nf, 0, int64(xw.NNZ()), func(tid, lo, hi int) {
		var sp obs.Span
		if !reqMode {
			sp = tr.Start("symbolic chunk", tid+1)
		}
		defer sp.End()
		w := symWorkers[tid]
		for f := lo; f < hi; f++ {
			if w.htaF != nil {
				for i := ptrFX[f]; i < ptrFX[f+1]; i++ {
					items, _ := hty.Lookup(p.radC.EncodeStrided(cCols, i))
					for _, it := range items {
						w.htaF.Add(it.LNFree, 0) // structure only; values ignored
					}
				}
				counts[f] = w.htaF.Len()
				w.htaF.Reset()
			} else {
				for i := ptrFX[f]; i < ptrFX[f+1]; i++ {
					items, _ := hty.Lookup(p.radC.EncodeStrided(cCols, i))
					for _, it := range items {
						w.hta.Add(it.LNFree, 0)
					}
				}
				counts[f] = w.hta.Len()
				w.hta.Reset()
			}
		}
	})
	rep.Symbolic = time.Since(t0)
	spSym.End()
	if symErr != nil {
		return nil, symErr
	}
	zoff, total := parallel.PrefixSum(counts)
	if opt.MaxOutputNNZ > 0 && total > opt.MaxOutputNNZ {
		return nil, errOutputTooLarge{total, opt.MaxOutputNNZ}
	}

	// Exact allocation — the symbolic phase's payoff.
	z, err := coo.New(p.zdims, 0)
	if err != nil {
		return nil, err
	}
	for m := range z.Inds {
		z.Inds[m] = make([]uint32, total)
	}
	z.Vals = make([]float64, total)

	// --- Numeric phase: recompute with values, write straight into Z ----
	ws := makeWorkers(threads, p, Options{
		Algorithm: AlgSparta, Kernel: opt.Kernel, Metrics: opt.Metrics,
	})
	spNum := tr.Start("numeric phase", track)
	numErr := parallel.ForChunkedWorkCtx(ctx, threads, nf, 0, int64(xw.NNZ()), func(tid, lo, hi int) {
		var sp obs.Span
		if !reqMode {
			sp = tr.Start("subtensor chunk", tid+1)
		}
		defer sp.End()
		w := ws[tid]
		buf := make([]uint32, p.nfy)
		for f := lo; f < hi; f++ {
			// ② index search
			t := time.Now()
			w.scratch = w.scratch[:0]
			for i := ptrFX[f]; i < ptrFX[f+1]; i++ {
				key := p.radC.EncodeStrided(cCols, i)
				items, probes := hty.Lookup(key)
				w.probesHtY += uint64(probes)
				if w.htyProbe != nil {
					w.htyProbe.Observe(float64(probes))
				}
				if items == nil {
					w.miss++
					continue
				}
				w.hits++
				w.scratch = append(w.scratch, match{items: items, xv: xw.Vals[i]})
			}
			w.searchNS += int64(time.Since(t))

			// ③ accumulation
			t = time.Now()
			if w.htaF != nil {
				for _, m := range w.scratch {
					v := m.xv
					for _, it := range m.items {
						w.htaF.Add(it.LNFree, it.Val*v)
					}
					w.products += uint64(len(m.items))
				}
			} else {
				for _, m := range w.scratch {
					v := m.xv
					for _, it := range m.items {
						w.hta.Add(it.LNFree, it.Val*v)
					}
					w.products += uint64(len(m.items))
				}
			}
			w.accumNS += int64(time.Since(t))

			// ④ writeback: straight into the pre-sized Z at this
			// sub-tensor's exact offset.
			t = time.Now()
			pos := zoff[f]
			xAt := ptrFX[f]
			var keys []uint64
			var vals []float64
			if w.htaF != nil {
				keys, vals = w.htaF.Keys(), w.htaF.Vals()
			} else {
				keys, vals = w.hta.Keys(), w.hta.Vals()
			}
			if invariant.Enabled {
				// The numeric phase re-runs the exact index structure the
				// symbolic phase counted; a mismatch would smear this
				// sub-tensor's rows over its neighbor's pre-allocated range.
				invariant.Assertf(len(keys) == counts[f],
					"two-phase: sub-tensor %d produced %d keys numerically but %d symbolically",
					f, len(keys), counts[f])
			}
			for k := range keys {
				for m := 0; m < p.nfx; m++ {
					z.Inds[m][pos] = xw.Inds[m][xAt]
				}
				p.radFY.Decode(keys[k], buf)
				for m := 0; m < p.nfy; m++ {
					z.Inds[p.nfx+m][pos] = buf[m]
				}
				z.Vals[pos] = vals[k]
				pos++
			}
			if invariant.Enabled {
				invariant.Assertf(pos-zoff[f] == counts[f],
					"two-phase: sub-tensor %d wrote %d rows into a range sized %d",
					f, pos-zoff[f], counts[f])
			}
			if w.htaF != nil {
				w.htaF.Reset()
			} else {
				w.hta.Reset()
			}
			w.writeNS += int64(time.Since(t))
		}
	})
	spNum.End()
	if numErr != nil {
		return nil, numErr
	}
	mergeWorkerStats(rep, ws)
	for _, sw := range symWorkers {
		var b uint64
		if sw.htaF != nil {
			b = sw.htaF.Bytes()
		} else {
			b = sw.hta.Bytes()
		}
		rep.BytesHtA += b
		if b > rep.BytesHtAPerThr {
			rep.BytesHtAPerThr = b
		}
	}
	rep.NNZZ = z.NNZ()
	rep.BytesZ = z.Bytes()
	// BytesZLocal stays 0: two-phase has no thread-local output buffers.

	// ⑤ Output sorting.
	if !opt.SkipOutputSort {
		spSort := tr.Start("output sort", track)
		t0 = time.Now()
		z.Sort(threads)
		rep.StageWall[StageSort] = time.Since(t0)
		rep.StageCPU[StageSort] = rep.StageWall[StageSort]
		spSort.End()
	}
	publishMetrics(opt.Metrics, rep, ws, symWorkers)
	return z, nil
}

// errOutputTooLarge mirrors the MaxOutputNNZ error of the one-phase path.
type errOutputTooLarge [2]int

func (e errOutputTooLarge) Error() string {
	return "core: output has " + itoa(e[0]) + " non-zeros, exceeding MaxOutputNNZ " + itoa(e[1])
}

// itoa avoids pulling strconv into the hot-path file for one error.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
