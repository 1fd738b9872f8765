package main

import (
	"context"
	"fmt"
	"time"

	"sparta"
	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/gen"
)

// fig4Item is one Table-3 self-contraction of the fig4-cold cycle. The nnz
// targets give the three items roughly equal walls at two threads, each
// bound by a different stage: Uber 3-Mode by stage 1 (X sort and HtY
// build), Uracil 2-Mode by stage 3 (accumulation), Vast 2-Mode by stage 4
// (writeback: Z has far more non-zeros than X).
type fig4Item struct {
	preset string
	modes  int
	nnz    int
}

var fig4Items = []fig4Item{
	{preset: "Uber", modes: 3, nnz: 120000},
	{preset: "Uracil", modes: 2, nnz: 40000},
	{preset: "Vast", modes: 2, nnz: 11000},
}

// selfSpec renders the einsum spec of an order-n self-contraction over the
// given modes: X's free modes then Y's free modes, so the output needs no
// permutation.
func selfSpec(order int, cmodes []int) string {
	contracted := map[int]bool{}
	for _, m := range cmodes {
		contracted[m] = true
	}
	next := 'a'
	var xs, ys, xFree, yFree []rune
	for m := 0; m < order; m++ {
		xs = append(xs, next)
		if !contracted[m] {
			xFree = append(xFree, next)
		}
		next++
	}
	for m := 0; m < order; m++ {
		if contracted[m] {
			ys = append(ys, xs[m])
			continue
		}
		ys = append(ys, next)
		yFree = append(yFree, next)
		next++
	}
	return string(xs) + "," + string(ys) + "->" + string(xFree) + string(yFree)
}

type fig4Case struct {
	name string
	spec string
	x    *coo.Tensor
	ref  engine.Fingerprint
}

func runFig4Cold(cfg runConfig) (*outcome, error) {
	cases := make([]fig4Case, len(fig4Items))
	for i, it := range fig4Items {
		p, err := gen.FindPreset(it.preset)
		if err != nil {
			return nil, err
		}
		w := gen.Workload{Preset: p, Modes: it.modes}
		cx, _ := w.ContractModes()
		c := fig4Case{
			name: w.Name(),
			spec: selfSpec(len(p.Dims), cx),
			x:    gen.Generate(p, it.nnz, cfg.Seed+int64(i)),
		}
		// Reference: the two-phase algorithm (symbolic pass, then numeric
		// accumulation in the same sub-tensor order), a different code path
		// from the timed Sparta one-shot.
		z, _, err := sparta.Einsum(c.spec, c.x, c.x, sparta.Options{Algorithm: sparta.AlgTwoPhase, Threads: cfg.Threads})
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", c.name, err)
		}
		c.ref = reference(z, cfg.CorruptRef)
		cases[i] = c
	}

	opt := sparta.Options{Algorithm: sparta.AlgSparta, Threads: cfg.Threads}
	match := func(zs []*coo.Tensor) bool {
		for i, c := range cases {
			if fingerprint(zs[i]) != c.ref {
				return false
			}
		}
		return true
	}
	cycle := func(threads int) (func() bool, error) {
		o := withThreads(opt, threads)
		zs := make([]*coo.Tensor, len(cases))
		for i, c := range cases {
			z, _, err := sparta.Einsum(c.spec, c.x, c.x, o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			zs[i] = z
		}
		return func() bool { return match(zs) }, nil
	}

	lw := libWorkload{
		// No plan outlives a call, so the only set-up is the first cycle.
		setup: func() (time.Duration, error) {
			t0 := time.Now()
			_, err := cycle(0)
			return time.Since(t0), err
		},
		op: func() (func() bool, error) { return cycle(0) },
		traced: func(rec *recorder) (bool, []*core.Report, error) {
			root := rec.newOp("op")
			reps := make([]*core.Report, 0, len(cases))
			zs := make([]*coo.Tensor, len(cases))
			for i, c := range cases {
				z, rep, err := tracedOneShot(rec, root, c.spec, c.x, c.x, opt)
				if err != nil {
					return false, nil, fmt.Errorf("%s: %w", c.name, err)
				}
				zs[i] = z
				reps = append(reps, rep)
			}
			rec.end(root)
			return match(zs), reps, nil
		},
		threadScaling: func(threads int) (time.Duration, error) {
			t0 := time.Now()
			_, err := cycle(threads)
			return time.Since(t0), err
		},
	}
	return runLibrary(cfg, lw)
}

// tracedOneShot is sparta.Einsum split at its module boundaries: parse the
// spec, build the Y plan (core.PrepareY), contract X against it
// (PreparedY.Contract), and permute and re-sort the output when the spec
// asks for it. Each call is one span under parent.
func tracedOneShot(rec *recorder, parent int, spec string, x, y *coo.Tensor, opt core.Options) (*coo.Tensor, *core.Report, error) {
	sp := rec.start(parent, "einsum.parse")
	ein, err := einsum.Parse(spec)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = rec.start(parent, "core.prepare")
	pr, err := core.PrepareY(y, ein.CmodesY, opt)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = rec.start(parent, "core.contract")
	z, rep, err := pr.Contract(context.Background(), x, ein.CmodesX, opt)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if err := tracedPermute(rec, parent, ein, z, opt.Threads); err != nil {
		return nil, nil, err
	}
	return z, rep, nil
}

// tracedPermute applies the spec's output permutation and re-sort, as the
// einsum front ends do, under a coo.sort span.
func tracedPermute(rec *recorder, parent int, ein *einsum.Plan, z *coo.Tensor, threads int) error {
	if ein.IdentityOut {
		return nil
	}
	sp := rec.start(parent, "coo.sort")
	defer rec.end(sp)
	if err := z.Permute(ein.OutPerm); err != nil {
		return err
	}
	z.Sort(threads)
	return nil
}
