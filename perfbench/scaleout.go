package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sparta"
	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/dist"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/gen"
)

// The scale-out shape: one large X against a small Y with a large Z, the
// BENCH_5/6 shape. X's last mode is contracted, so X in its stored order is
// already the streaming driver's free-modes-first order.
var (
	scaleXDims = []uint64{512, 48, 64}
	scaleYDims = []uint64{64, 48}
)

const (
	scaleNNZX    = 60000
	scaleNNZY    = 1200
	scaleSpec    = "abc,cd->abd"
	scaleWindows = 6 // streamed windows per op
	scaleShards  = 2 // local executors behind the coordinator
)

// scaleState is the live set-up of the three scale-out drivers.
type scaleState struct {
	eng   *engine.Engine // in-memory driver
	xPath string         // streamed driver's mapped X
	coord *dist.Coordinator
	execs []*dist.Local
}

// scaleDrivers names the scale-out drivers in the order one op runs them.
var scaleDrivers = [...]string{"inmem", "streamed", "sharded"}

// runScaleout times one op as a pass of the same contraction through the
// three execution drivers in turn: warm Engine.Einsum in memory,
// ContractStream over the mmap-backed X, and dist.Coordinator over Local
// executors. Every driver's output is checked against the reference.
func runScaleout(cfg runConfig) (*outcome, error) {
	x := gen.Random(scaleXDims, scaleNNZX, cfg.Seed)
	y := gen.Random(scaleYDims, scaleNNZY, cfg.Seed+1)
	ein, err := einsum.Parse(scaleSpec)
	if err != nil {
		return nil, err
	}
	opt := core.Options{Algorithm: core.AlgSparta, Threads: cfg.Threads}
	// Each shard leg gets an equal share of the threads, so the sharded
	// driver runs nproc threads in all, like the other two; nproc threads
	// per leg would oversubscribe the cores.
	shardOpt := withThreads(opt, max(1, cfg.Threads/scaleShards))
	// Reference: the in-memory one-shot path; every driver must match it.
	zRef, _, err := sparta.Einsum(scaleSpec, x, y, opt)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref := reference(zRef, cfg.CorruptRef)
	window := (x.NNZ() + scaleWindows - 1) / scaleWindows
	// The warm Y plan the streamed driver contracts against.
	pr, err := core.PrepareY(y, ein.CmodesY, opt)
	if err != nil {
		return nil, err
	}

	st := &scaleState{}
	check := func(z *coo.Tensor) bool { return fingerprint(z) == ref }
	drivers := [len(scaleDrivers)]func(threads int) (*coo.Tensor, error){
		func(threads int) (*coo.Tensor, error) {
			z, _, err := st.eng.Einsum(context.Background(), scaleSpec, x, y, withThreads(opt, threads))
			return z, err
		},
		func(threads int) (*coo.Tensor, error) {
			m, err := coo.OpenMapped(st.xPath)
			if err != nil {
				return nil, err
			}
			defer m.Close()
			ws, err := m.Stream(window)
			if err != nil {
				return nil, err
			}
			z, _, err := core.ContractStream(context.Background(), ws, pr,
				core.StreamOptions{Options: withThreads(opt, threads), SpillZ: true, SpillDir: cfg.WorkDir})
			return z, err
		},
		func(threads int) (*coo.Tensor, error) {
			z, _, err := st.coord.Einsum(context.Background(), scaleSpec, x, y, withThreads(shardOpt, threads))
			return z, err
		},
	}
	// run is one op: every driver in turn, each output checked after the
	// op's wall is taken.
	run := func(threads int) (func() bool, error) {
		var zs [len(drivers)]*coo.Tensor
		for i, d := range drivers {
			z, err := d(threads)
			if err != nil {
				return nil, fmt.Errorf("%s driver: %w", scaleDrivers[i], err)
			}
			zs[i] = z
		}
		return func() bool {
			ok := true
			for _, z := range zs {
				ok = check(z) && ok
			}
			return ok
		}, nil
	}

	setup := func() (time.Duration, error) {
		t0 := time.Now()
		st.eng = engine.New(engine.Config{})
		// Write the sorted X as a v2 file; each op maps and windows it.
		xs := x.Clone()
		xs.Sort(cfg.Threads)
		st.xPath = filepath.Join(cfg.WorkDir, "x.sptn")
		if err := xs.SaveBinV2(st.xPath); err != nil {
			return 0, err
		}
		if st.coord != nil {
			_ = st.coord.Close()
		}
		st.execs = make([]*dist.Local, scaleShards)
		execs := make([]dist.Executor, scaleShards)
		for i := range execs {
			st.execs[i] = dist.NewLocal(fmt.Sprintf("local-%d", i), dist.LocalConfig{})
			execs[i] = st.execs[i]
		}
		coord, err := dist.NewCoordinator(dist.Config{Executors: execs})
		if err != nil {
			return 0, err
		}
		st.coord = coord
		// The first op fills the plan cache (in-memory), maps the file
		// (streamed) and builds the shard plans (sharded).
		_, err = run(0)
		return time.Since(t0), err
	}

	// walls holds each traced op's per-driver walls (ms), the base of the
	// slowdown, speedup and merge-share ratios.
	var walls [len(drivers)][]float64
	lw := libWorkload{
		setup: setup,
		op:    func() (func() bool, error) { return run(0) },
		threadScaling: func(threads int) (time.Duration, error) {
			t0 := time.Now()
			_, err := run(threads)
			return time.Since(t0), err
		},
	}
	lw.traced = func(rec *recorder) (bool, []*core.Report, error) {
		root := rec.newOp("op")
		var zs [len(drivers)]*coo.Tensor
		var reps []*core.Report
		for i := range drivers {
			t0 := time.Now()
			var z *coo.Tensor
			var rs []*core.Report
			var err error
			switch i {
			case 0:
				var rep *core.Report
				z, rep, err = tracedEngineContract(rec, root, st.eng, ein, x, y, opt)
				rs = []*core.Report{rep}
			case 1:
				z, rs, err = tracedStreamed(rec, root, st.xPath, window, pr, opt, cfg.WorkDir)
			case 2:
				z, rs, err = tracedSharded(rec, root, st, ein, x, y, shardOpt)
			}
			if err != nil {
				rec.end(root)
				return false, nil, fmt.Errorf("%s driver: %w", scaleDrivers[i], err)
			}
			walls[i] = append(walls[i], ms(time.Since(t0)))
			zs[i] = z
			reps = append(reps, rs...)
		}
		rec.end(root)
		ok := true
		for _, z := range zs {
			ok = check(z) && ok
		}
		return ok, reps, nil
	}
	lw.layers = func(o *outcome, ops []opStats, _ float64) error {
		inmemMS, streamedMS, shardedMS := median(walls[0]), median(walls[1]), median(walls[2])
		o.set("stream.slowdown", "ratio", streamedMS/inmemMS)
		o.set("dist.speedup", "ratio", inmemMS/shardedMS)
		o.set("dist.merge_share", "ratio", medianByName(ops, "dist.merge")/shardedMS)
		parts, err := dist.Partition(x, ein.CmodesX, st.coord.Ring(), cfg.Threads)
		if err != nil {
			return err
		}
		var mx, sum float64
		for _, p := range parts {
			n := float64(p.NNZ())
			sum += n
			mx = max(mx, n)
		}
		o.set("dist.balance", "ratio", mx/(sum/float64(len(parts))))
		return nil
	}
	out, err := runLibrary(cfg, lw)
	if st.coord != nil {
		_ = st.coord.Close()
	}
	if st.xPath != "" {
		_ = os.Remove(st.xPath)
	}
	return out, err
}

// tracedEngineContract is Engine.Contract split into Engine.PrepareCtx
// (span engine.lookup on a hit, engine.prepare_miss on a miss) and
// PreparedY.Contract (span core.contract).
func tracedEngineContract(rec *recorder, parent int, eng *engine.Engine, ein *einsum.Plan, x, y *coo.Tensor, opt core.Options) (*coo.Tensor, *core.Report, error) {
	t0 := time.Now()
	pr, hit, err := eng.PrepareCtx(context.Background(), y, ein.CmodesY, opt)
	name := "engine.prepare_miss"
	if hit {
		name = "engine.lookup"
	}
	rec.record(parent, name, t0, time.Now())
	if err != nil {
		return nil, nil, err
	}
	sp := rec.start(parent, "core.contract")
	z, rep, err := pr.Contract(context.Background(), x, ein.CmodesX, opt)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if hit {
		rep.HtYReused = true
		rep.HtYBuild = 0
	}
	return z, rep, nil
}

// tracedStreamed is the streamed op: map the file and index its windows
// (span stream.open), then walk the windows against the warm plan with Z
// spilled to a run spool (span core.contract).
func tracedStreamed(rec *recorder, root int, path string, window int, pr *core.PreparedY, opt core.Options, dir string) (*coo.Tensor, []*core.Report, error) {
	sp := rec.start(root, "stream.open")
	m, err := coo.OpenMapped(path)
	var ws *coo.WindowStream
	if err == nil {
		ws, err = m.Stream(window)
	}
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	sp = rec.start(root, "core.contract")
	z, rep, err := core.ContractStream(context.Background(), ws, pr,
		core.StreamOptions{Options: opt, SpillZ: true, SpillDir: dir})
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return z, []*core.Report{rep}, nil
}

// tracedSharded is Coordinator.Contract split at its module boundaries:
// dist.Partition over the coordinator's ring, one Local.Contract per
// non-empty shard run concurrently (spans dist.shard), and coo.MergeRuns
// (span dist.merge). It drives the coordinator's own warm executors.
func tracedSharded(rec *recorder, root int, st *scaleState, ein *einsum.Plan, x, y *coo.Tensor, opt core.Options) (*coo.Tensor, []*core.Report, error) {
	sp := rec.start(root, "dist.partition")
	parts, err := dist.Partition(x, ein.CmodesX, st.coord.Ring(), opt.Threads)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	job := dist.Job{CmodesX: ein.CmodesX, CmodesY: ein.CmodesY, Options: opt}
	job.Options.InPlace = true // partitions are private copies, as in the coordinator
	runs := make([]*coo.Tensor, len(parts))
	reps := make([]*core.Report, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for s, p := range parts {
		if p.NNZ() == 0 {
			continue
		}
		wg.Add(1)
		//lint:ignore chunkloop one goroutine per shard leg (bounded by the shard count), as in dist.Coordinator
		go func(s int, p *coo.Tensor) {
			defer wg.Done()
			t0 := time.Now()
			runs[s], reps[s], errs[s] = st.execs[s].Contract(context.Background(), p, y, job)
			rec.record(root, "dist.shard", t0, time.Now())
		}(s, p)
	}
	wg.Wait()
	var out []*core.Report
	for s := range parts {
		if errs[s] != nil {
			return nil, nil, errs[s]
		}
		if reps[s] != nil {
			out = append(out, reps[s])
		}
	}
	zdims := freeDims(x, ein.CmodesX)
	zdims = append(zdims, freeDims(y, ein.CmodesY)...)
	sp = rec.start(root, "dist.merge")
	z, err := coo.MergeRuns(zdims, runs)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return z, out, nil
}

// freeDims lists t's uncontracted mode sizes in mode order.
func freeDims(t *coo.Tensor, cmodes []int) []uint64 {
	var out []uint64
	for m, d := range t.Dims {
		contracted := false
		for _, c := range cmodes {
			contracted = contracted || c == m
		}
		if !contracted {
			out = append(out, d)
		}
	}
	return out
}
