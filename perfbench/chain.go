package main

import (
	"fmt"
	"time"

	"sparta"
	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/gen"
)

// The chain-ccsd network: an order-4 amplitude tensor T[abij] threaded
// through integral matrices and a small occupancy-like Q[di] that removes
// both remaining non-output modes. The written order contracts T first,
// which inflates every intermediate; V is the Y side of two steps; the
// output is permuted (ba). Values are small integers, so every order gives
// bitwise-identical results.
var chainSteps = []sparta.ChainStep{
	{Out: "W1", Spec: "abij,jk->abik", X: "T", Y: "V"},
	{Out: "W2", Spec: "abik,kl->abil", X: "W1", Y: "U"},
	{Out: "W3", Spec: "abil,lc->abic", X: "W2", Y: "V"},
	{Out: "W4", Spec: "abic,cd->abid", X: "W3", Y: "R"},
	{Out: "Z", Spec: "abid,di->ba", X: "W4", Y: "Q"},
}

const (
	chainDim    = 32
	chainNNZT   = 100000
	chainNNZMat = 300
	chainNNZQ   = 20
)

// intValued replaces a tensor's values with small positive integers, making
// contraction arithmetic exact in any association order.
func intValued(t *coo.Tensor) *coo.Tensor {
	for i := range t.Vals {
		t.Vals[i] = float64(1 + i%3)
	}
	return t
}

func chainInputs(seed int64) map[string]*coo.Tensor {
	d := uint64(chainDim)
	mat := func(nnz int, s int64) *coo.Tensor { return intValued(gen.Random([]uint64{d, d}, nnz, s)) }
	return map[string]*coo.Tensor{
		"T": intValued(gen.Random([]uint64{d, d, d, d}, chainNNZT, seed)),
		"V": mat(chainNNZMat, seed+1),
		"U": mat(chainNNZMat, seed+2),
		"R": mat(chainNNZMat, seed+3),
		"Q": mat(chainNNZQ, seed+4),
	}
}

func runChainCCSD(cfg runConfig) (*outcome, error) {
	inputs := chainInputs(cfg.Seed)
	final := chainSteps[len(chainSteps)-1].Out
	// Reference: the chain exactly as written.
	written, err := sparta.EvalChain(chainSteps, inputs, sparta.Options{Algorithm: sparta.AlgSparta, Threads: cfg.Threads})
	if err != nil {
		return nil, fmt.Errorf("reference chain: %w", err)
	}
	ref := reference(written.Tensors[final], cfg.CorruptRef)
	opt := sparta.Options{Algorithm: sparta.AlgSparta, Threads: cfg.Threads, Planner: sparta.PlannerAuto}

	// orders records every planned op's contraction tree: the planner fits
	// its cost model from measured walls in a process-global ring, so the
	// chosen order can change between ops of one run.
	var orders []string
	chain := func(threads int) (func() bool, error) {
		res, err := sparta.EvalChain(chainSteps, inputs, withThreads(opt, threads))
		if err != nil {
			return nil, err
		}
		orders = append(orders, res.Reports[len(res.Reports)-1].PlannedOrder)
		return func() bool { return fingerprint(res.Tensors[final]) == ref }, nil
	}
	lw := libWorkload{
		// Planning happens inside every op; the set-up is the first chain.
		setup: func() (time.Duration, error) {
			t0 := time.Now()
			_, err := chain(0)
			return time.Since(t0), err
		},
		op: func() (func() bool, error) { return chain(0) },
		traced: func(rec *recorder) (bool, []*core.Report, error) {
			root := rec.newOp("op")
			z, reps, order, err := tracedChain(rec, root, inputs, opt)
			rec.end(root)
			if err != nil {
				return false, nil, err
			}
			orders = append(orders, order)
			return fingerprint(z) == ref, reps, nil
		},
		threadScaling: func(threads int) (time.Duration, error) {
			t0 := time.Now()
			_, err := chain(threads)
			return time.Since(t0), err
		},
		layers: func(o *outcome, ops []opStats, _ float64) error {
			changes := 0
			for _, ord := range orders {
				if ord != orders[0] {
					changes++
				}
			}
			o.set("plan.order_changes", "count", float64(changes))
			reused := make([]float64, len(ops))
			for i, op := range ops {
				reused[i] = float64(op.Count["engine.lookup"])
			}
			o.set("chain.hty_reused", "count", median(reused))
			return nil
		},
	}
	return runLibrary(cfg, lw)
}

// tracedChain is EvalChain with PlannerAuto split at its module
// boundaries: sparta.PlanChain (span plan.plan), then every step through a
// chain-local plan cache (Engine.PrepareCtx and PreparedY.Contract) and the
// spec's output permutation, with EvalChain's rule for contracting
// intermediates in place.
func tracedChain(rec *recorder, root int, inputs map[string]*coo.Tensor, opt core.Options) (*coo.Tensor, []*core.Report, string, error) {
	sp := rec.start(root, "plan.plan")
	pr, err := sparta.PlanChain(chainSteps, inputs, opt)
	rec.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	steps, order := chainSteps, ""
	if pr.Planned {
		steps, order = pr.Steps, pr.Order
	}
	eng := engine.New(engine.Config{CacheEntries: len(steps)})
	tensors := make(map[string]*coo.Tensor, len(inputs)+len(steps))
	for n, t := range inputs {
		tensors[n] = t
	}
	lastUse := map[string]int{}
	for i, st := range steps {
		lastUse[st.X], lastUse[st.Y] = i, i
	}
	reps := make([]*core.Report, 0, len(steps))
	for i, st := range steps {
		_, inX := inputs[st.X]
		_, inY := inputs[st.Y]
		stepOpt := opt
		stepOpt.InPlace = !inX && !inY && lastUse[st.X] == i && lastUse[st.Y] == i && st.X != st.Y
		sp := rec.start(root, "einsum.parse")
		ein, err := einsum.Parse(st.Spec)
		rec.end(sp)
		if err != nil {
			return nil, nil, "", err
		}
		z, rep, err := tracedEngineContract(rec, root, eng, ein, tensors[st.X], tensors[st.Y], stepOpt)
		if err != nil {
			return nil, nil, "", fmt.Errorf("step %d (%s): %w", i, st.Spec, err)
		}
		if err := tracedPermute(rec, root, ein, z, stepOpt.Threads); err != nil {
			return nil, nil, "", err
		}
		tensors[st.Out] = z
		reps = append(reps, rep)
	}
	return tensors[steps[len(steps)-1].Out], reps, order, nil
}
