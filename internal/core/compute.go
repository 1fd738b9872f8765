package core

import (
	"time"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
	"sparta/internal/obs"
	"sparta/internal/spa"
)

// zsub records that one X sub-tensor contributed n consecutive output
// non-zeros to a thread's Zlocal.
type zsub struct {
	f int32
	n int32
}

// zlocalBuf is the thread-local dynamic output buffer Zlocal from §3.5:
// free-Y keys and values appended sub-tensor by sub-tensor; the free-X
// coordinates are recovered from X via the sub-tensor id during gather.
type zlocalBuf struct {
	subs []zsub
	lns  []uint64
	vals []float64
}

func (z *zlocalBuf) bytes() uint64 {
	return uint64(cap(z.subs))*8 + uint64(cap(z.lns))*8 + uint64(cap(z.vals))*8
}

// reset empties the buffer keeping its capacity; the streaming driver calls
// it between windows so one window's worth of Zlocal is the steady-state
// footprint regardless of how many windows the contraction spans.
func (z *zlocalBuf) reset() {
	z.subs = z.subs[:0]
	z.lns = z.lns[:0]
	z.vals = z.vals[:0]
}

// match is one X non-zero with a resolved Y item list (Sparta path).
type match struct {
	items []hashtab.YItem
	xv    float64
}

// rangeMatch is one X non-zero with a resolved COO-Y range (baseline paths).
type rangeMatch struct {
	lo, hi int
	xv     float64
}

// worker is the per-thread state of the computation stages. Exactly one of
// hta/htaF is non-nil for the accumulating algorithms, selected by
// Options.Kernel; the accumulation and flush loops branch once per
// sub-tensor on that, keeping the per-product Add monomorphic (no interface
// dispatch on the hottest call in the repo).
type worker struct {
	hta  *hashtab.HtA
	htaF *hashtab.HtAFlat
	spa  *spa.SPA
	z    zlocalBuf

	scratch  []match
	scratchR []rangeMatch
	keyBuf   []uint32

	searchNS, accumNS, writeNS int64
	searchSteps                uint64
	probesHtY                  uint64
	hits, miss                 uint64
	products                   uint64
	spaHits, spaMiss           uint64

	// htyProbe records the probe length of each HtY lookup when metrics are
	// configured (Options.Metrics); nil otherwise, guarded by one branch in
	// the search loops. Thread-private like the rest of the worker, merged
	// into the registry by publishMetrics after the parallel section.
	htyProbe *obs.HistShard
}

// htaCap is each worker's initial accumulator capacity; the tables grow
// past it on demand.
const htaCap = 1024

func makeWorkers(threads int, p *plan, opt Options) []*worker {
	ws := make([]*worker, threads)
	for i := range ws {
		w := &worker{keyBuf: make([]uint32, p.nfy)}
		switch opt.Algorithm {
		case AlgSparta, AlgCOOHtA:
			if opt.Kernel == KernelChained {
				w.hta = hashtab.NewHtA(htaCap)
			} else {
				w.htaF = hashtab.NewHtAFlat(htaCap)
			}
		case AlgSPA:
			w.spa = spa.New(p.nfy)
		}
		if opt.Metrics != nil {
			w.htyProbe = obs.NewHistShard(obs.ProbeBuckets)
			if w.hta != nil {
				w.hta.ProbeHist = obs.NewHistShard(obs.ProbeBuckets)
			}
			if w.htaF != nil {
				w.htaF.ProbeHist = obs.NewHistShard(obs.ProbeBuckets)
			}
		}
		ws[i] = w
	}
	return ws
}

// subSparta processes X sub-tensor f with Algorithm 2: HtY probes for the
// index search, HtA for accumulation, Zlocal flush for writeback. The three
// phases are timed separately so Fig. 2-style breakdowns are exact.
func (w *worker) subSparta(p *plan, xw *coo.Tensor, hty hashtab.YTable, ptrFX []int, f int) {
	lo, hi := ptrFX[f], ptrFX[f+1]
	cCols := xw.Inds[p.nfx:]

	// ② index search
	t := time.Now()
	w.scratch = w.scratch[:0]
	for i := lo; i < hi; i++ {
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

	// ④ writeback into Zlocal
	t = time.Now()
	w.flushHtA(f)
	w.writeNS += int64(time.Since(t))
}

// searchCOOY performs the baseline linear index search (Algorithm 1): scan
// the distinct contract-key runs of the sorted COO Y until the key matches
// or exceeds the probe. Each run inspection counts one search step; the
// worst case is O(distinct keys) ~ O(nnz_Y) per X non-zero.
func (w *worker) searchCOOY(p *plan, xw, yw *coo.Tensor, ptrCY []int, i int) (int, int, bool) {
	cColsX := xw.Inds[p.nfx:]
	cColsY := yw.Inds[:p.ncm]
	for r := 0; r+1 < len(ptrCY); r++ {
		w.searchSteps++
		at := ptrCY[r]
		cmp := 0
		for m := 0; m < p.ncm; m++ {
			a, b := cColsY[m][at], cColsX[m][i]
			if a != b {
				if a < b {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		if cmp == 0 {
			return ptrCY[r], ptrCY[r+1], true
		}
		if cmp > 0 {
			return 0, 0, false // sorted: key exceeded the probe
		}
	}
	return 0, 0, false
}

// subCOOHtA processes X sub-tensor f with COO-Y linear search + HtA.
func (w *worker) subCOOHtA(p *plan, xw, yw *coo.Tensor, ptrFX, ptrCY []int, f int) {
	lo, hi := ptrFX[f], ptrFX[f+1]

	t := time.Now()
	w.scratchR = w.scratchR[:0]
	for i := lo; i < hi; i++ {
		ylo, yhi, ok := w.searchCOOY(p, xw, yw, ptrCY, i)
		if !ok {
			w.miss++
			continue
		}
		w.hits++
		w.scratchR = append(w.scratchR, rangeMatch{lo: ylo, hi: yhi, xv: xw.Vals[i]})
	}
	w.searchNS += int64(time.Since(t))

	t = time.Now()
	fCols := yw.Inds[p.ncm:]
	if w.htaF != nil {
		for _, m := range w.scratchR {
			v := m.xv
			for j := m.lo; j < m.hi; j++ {
				w.htaF.Add(p.radFY.EncodeStrided(fCols, j), yw.Vals[j]*v)
			}
			w.products += uint64(m.hi - m.lo)
		}
	} else {
		for _, m := range w.scratchR {
			v := m.xv
			for j := m.lo; j < m.hi; j++ {
				w.hta.Add(p.radFY.EncodeStrided(fCols, j), yw.Vals[j]*v)
			}
			w.products += uint64(m.hi - m.lo)
		}
	}
	w.accumNS += int64(time.Since(t))

	t = time.Now()
	w.flushHtA(f)
	w.writeNS += int64(time.Since(t))
}

// subSPA processes X sub-tensor f with Algorithm 1: COO-Y linear search +
// vector SPA keyed by the raw free-index tuple of Y.
func (w *worker) subSPA(p *plan, xw, yw *coo.Tensor, ptrFX, ptrCY []int, f int) {
	lo, hi := ptrFX[f], ptrFX[f+1]

	t := time.Now()
	w.scratchR = w.scratchR[:0]
	for i := lo; i < hi; i++ {
		ylo, yhi, ok := w.searchCOOY(p, xw, yw, ptrCY, i)
		if !ok {
			w.miss++
			continue
		}
		w.hits++
		w.scratchR = append(w.scratchR, rangeMatch{lo: ylo, hi: yhi, xv: xw.Vals[i]})
	}
	w.searchNS += int64(time.Since(t))

	t = time.Now()
	fCols := yw.Inds[p.ncm:]
	for _, m := range w.scratchR {
		v := m.xv
		for j := m.lo; j < m.hi; j++ {
			before := w.spa.Len()
			for k := 0; k < p.nfy; k++ {
				w.keyBuf[k] = fCols[k][j]
			}
			w.spa.Add(w.keyBuf, yw.Vals[j]*v)
			if w.spa.Len() == before {
				w.spaHits++
			} else {
				w.spaMiss++
			}
		}
		w.products += uint64(m.hi - m.lo)
	}
	w.accumNS += int64(time.Since(t))

	t = time.Now()
	w.flushSPA(p, f)
	w.writeNS += int64(time.Since(t))
}

// flushHtA appends the accumulator contents to Zlocal and resets it. Both
// accumulator layouts expose the same insertion-order Keys/Vals arrays, so
// the Zlocal writeback contract is identical.
func (w *worker) flushHtA(f int) {
	var n int
	var keys []uint64
	var vals []float64
	if w.htaF != nil {
		n, keys, vals = w.htaF.Len(), w.htaF.Keys(), w.htaF.Vals()
	} else {
		n, keys, vals = w.hta.Len(), w.hta.Keys(), w.hta.Vals()
	}
	if n > 0 {
		w.z.subs = append(w.z.subs, zsub{f: int32(f), n: int32(n)})
		w.z.lns = append(w.z.lns, keys...)
		w.z.vals = append(w.z.vals, vals...)
	}
	if w.htaF != nil {
		w.htaF.Reset()
	} else {
		w.hta.Reset()
	}
}

// flushSPA appends the SPA contents (LN-encoding each tuple once) and
// resets it.
func (w *worker) flushSPA(p *plan, f int) {
	n := w.spa.Len()
	if n > 0 {
		w.z.subs = append(w.z.subs, zsub{f: int32(f), n: int32(n)})
		for i := 0; i < n; i++ {
			key, v := w.spa.Entry(i)
			w.z.lns = append(w.z.lns, p.radFY.Encode(key))
			w.z.vals = append(w.z.vals, v)
		}
	}
	w.spa.Reset()
}
