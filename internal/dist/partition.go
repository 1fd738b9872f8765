package dist

import (
	"fmt"

	"sparta/internal/coo"
	"sparta/internal/parallel"
)

// maxBins caps the leading-mode histogram. Modes up to this size are binned
// by exact index; longer modes bin index>>shift, so a cut can only fall on a
// bin edge.
const maxBins = 1 << 16

// Partition cuts x into one tensor per ring shard along contiguous,
// nnz-balanced ranges of its leading free mode (the first mode not in
// cmodesX). Shard s holds only leading indices below shard s+1's. That
// mode leads Z too, so every free-mode sub-tensor lands whole on one shard,
// the per-shard sorted Z runs are disjoint, and shard s's run precedes
// shard s+1's: the coordinator's merge is a concatenation, and the output
// is bitwise identical to the one-shot contraction (see the package
// comment). A bin goes to the shard its midpoint in the cumulative non-zero
// count falls in, so no shard exceeds nnz/S by more than its largest bin.
//
// One pass builds per-worker histograms of the leading index; a second
// scatters stably: within each shard, non-zeros keep x's original relative
// order (both passes split over identical chunks, and per-worker offsets
// follow chunk order). A fully contracted X has no free modes and lands
// whole on shard 0. x itself is never mutated; the returned tensors keep
// x's mode order and share no storage with it.
func Partition(x *coo.Tensor, cmodesX []int, ring *Ring, threads int) ([]*coo.Tensor, error) {
	if x == nil {
		return nil, fmt.Errorf("dist: nil X tensor")
	}
	order := x.Order()
	inX := make([]bool, order)
	for _, m := range cmodesX {
		if m < 0 || m >= order {
			return nil, fmt.Errorf("dist: contract mode %d out of range for order-%d X", m, order)
		}
		if inX[m] {
			return nil, fmt.Errorf("dist: duplicate contract mode %d", m)
		}
		inX[m] = true
	}
	S := ring.Shards()
	n := x.NNZ()
	parts := make([]*coo.Tensor, S)
	for s := range parts {
		p, err := coo.New(x.Dims, 0)
		if err != nil {
			return nil, err
		}
		parts[s] = p
	}
	if n == 0 {
		return parts, nil
	}

	// Bin by the leading free index. With no free mode the bins (over mode
	// 0) still count, but every one of them stays with shard 0.
	leadMode, free := 0, false
	for m := 0; m < order; m++ {
		if !inX[m] {
			leadMode, free = m, true
			break
		}
	}
	lead := x.Inds[leadMode]
	shift := uint(0)
	for (x.Dims[leadMode]-1)>>shift >= maxBins {
		shift++
	}
	nbins := int((x.Dims[leadMode]-1)>>shift) + 1

	// Pass 1: per-worker histograms. Both parallel.For calls use the same
	// (threads, n) pair, so the static chunk boundaries are identical.
	threads = parallel.ClampWork(threads, n, int64(n))
	hist := make([][]int, threads)
	parallel.For(threads, n, func(tid, lo, hi int) {
		h := make([]int, nbins)
		for i := lo; i < hi; i++ {
			h[lead[i]>>shift]++
		}
		hist[tid] = h
	})

	// Cut: bin b goes to the shard holding the midpoint of its slice of the
	// cumulative count. The midpoints ascend, so the owners do too.
	owner := make([]int, nbins)
	cum := 0
	for b := range owner {
		c := 0
		for _, h := range hist {
			c += h[b]
		}
		if free {
			owner[b] = min(S-1, int(int64(2*cum+c)*int64(S)/int64(2*n)))
		}
		cum += c
	}

	// Per-worker write offsets: worker tid's slice of shard s starts after
	// every earlier worker's slice — chunk-major order is original order.
	off := make([][]int, threads)
	sizes := make([]int, S)
	for tid, h := range hist {
		cnt := make([]int, S)
		for b, c := range h {
			cnt[owner[b]] += c
		}
		off[tid] = make([]int, S)
		for s, c := range cnt {
			off[tid][s] = sizes[s]
			sizes[s] += c
		}
	}
	for s, p := range parts {
		for m := range p.Inds {
			p.Inds[m] = make([]uint32, sizes[s])
		}
		p.Vals = make([]float64, sizes[s])
	}

	// Pass 2: stable scatter into the pre-sized columns.
	parallel.For(threads, n, func(tid, lo, hi int) {
		pos := off[tid]
		for i := lo; i < hi; i++ {
			s := owner[lead[i]>>shift]
			p := parts[s]
			j := pos[s]
			pos[s] = j + 1
			for m := 0; m < order; m++ {
				p.Inds[m][j] = x.Inds[m][i]
			}
			p.Vals[j] = x.Vals[i]
		}
	})
	return parts, nil
}
