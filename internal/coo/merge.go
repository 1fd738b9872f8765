package coo

import "fmt"

// MergeRuns concatenates sorted, pairwise-disjoint runs into one sorted
// tensor. Every producer in the tree emits such runs: the windowed driver's
// windows never split a free-prefix sub-tensor, and the sharded coordinator's
// range partition gives shard s only leading-mode indices below shard s+1's.
// The merge is therefore O(total) copies with one boundary compare per run,
// and the paper's stage ⑤ stays dead. A single live run is adopted without
// copying. Runs that overlap or arrive out of order are rejected, as
// RunSpool.Append rejects them: summing across runs would change the
// floating-point addition order of the one-shot contraction.
func MergeRuns(dims []uint64, runs []*Tensor) (*Tensor, error) {
	total := 0
	live := runs[:0:0]
	for _, r := range runs {
		if r == nil || r.NNZ() == 0 {
			continue
		}
		if r.Order() != len(dims) {
			return nil, fmt.Errorf("coo: MergeRuns: run order %d, want %d", r.Order(), len(dims))
		}
		live = append(live, r)
		total += r.NNZ()
	}
	z, err := New(dims, 0)
	if err != nil {
		return nil, err
	}
	if len(live) == 0 {
		return z, nil
	}
	if len(live) == 1 {
		// Adopt the single run's storage under the canonical dims.
		z.Inds = live[0].Inds
		z.Vals = live[0].Vals
		return z, nil
	}
	if i := firstDisorder(live); i > 0 {
		return nil, fmt.Errorf("coo: MergeRuns: run %d does not start after run %d ends (runs must be disjoint and ascending)", i, i-1)
	}
	for m := range z.Inds {
		col := make([]uint32, 0, total)
		for _, r := range live {
			col = append(col, r.Inds[m]...)
		}
		z.Inds[m] = col
	}
	vals := make([]float64, 0, total)
	for _, r := range live {
		vals = append(vals, r.Vals...)
	}
	z.Vals = vals
	return z, nil
}

// firstDisorder returns the index of the first run whose first coordinate
// does not follow the previous run's last one, or 0 when the runs are
// disjoint and ascending.
func firstDisorder(runs []*Tensor) int {
	order := runs[0].Order()
	a := make([]uint32, order)
	b := make([]uint32, order)
	for i := 1; i < len(runs); i++ {
		runs[i-1].Index(runs[i-1].NNZ()-1, a)
		runs[i].Index(0, b)
		if !tupleLess(a, b) {
			return i
		}
	}
	return 0
}
