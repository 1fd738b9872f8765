package main

import (
	"fmt"
	"os"
	"time"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/engine"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 11

// rssSegments is how many segments the timed ops of a library workload are
// split into for peak_rss_mb.
const rssSegments = 5

// libWorkload is a workload driven in-process by one closed-loop caller.
type libWorkload struct {
	// setup prepares everything the timed ops need except the seeded
	// inputs and the reference outputs, and runs the first op; it returns
	// its own wall. It runs setupReps times; the last set-up stays live.
	// Its output is not checked: the timed ops run the same path and are.
	setup func() (time.Duration, error)
	// op runs one untraced op and returns the check of its output against
	// the reference, which runs after the op's wall is taken.
	op func() (check func() bool, err error)
	// traced runs one op with spans under a fresh root from rec and
	// returns the op's contraction reports.
	traced func(rec *recorder) (ok bool, reps []*core.Report, err error)
	// layers sets the workload's own per-layer metrics from the traced
	// ops.
	layers func(o *outcome, ops []opStats, untracedMS float64) error
	// threadScaling runs one op at the given thread count and returns its
	// wall (for core.speedup_threads).
	threadScaling func(threads int) (time.Duration, error)
}

// withThreads returns opt at the given thread count; 0 keeps opt's own.
func withThreads(opt core.Options, threads int) core.Options {
	if threads > 0 {
		opt.Threads = threads
	}
	return opt
}

// fingerprint is the output oracle's view of a tensor.
func fingerprint(t *coo.Tensor) engine.Fingerprint { return engine.FingerprintTensor(t, 0) }

// reference wraps an expected fingerprint; corrupt flips a bit so the run
// must fail.
func reference(t *coo.Tensor, corrupt bool) engine.Fingerprint {
	fp := fingerprint(t)
	if corrupt {
		fp.Lo ^= 1
	}
	return fp
}

func runLibrary(cfg runConfig, lw libWorkload) (*outcome, error) {
	o := newOutcome()
	if !cfg.Trace {
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting peak RSS: %w", err)
		}
		setups := make([]float64, 0, setupReps)
		for i := 0; i < setupReps; i++ {
			d, err := lw.setup()
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		// The timed ops run in rssSegments equal segments; peak_rss_mb is
		// the median of the segments' resident-set high-water marks, so a
		// single late finalizer or GC cycle moves one segment, not the run.
		var ops []opSample
		var peaks []float64
		for seg := 0; seg < rssSegments; seg++ {
			if err := clearPeakRSS("self"); err != nil {
				return nil, fmt.Errorf("resetting peak RSS: %w", err)
			}
			part, err := timeOps(cfg.Duration/rssSegments, lw.op, o)
			if err != nil {
				return nil, err
			}
			ops = append(ops, part...)
			rss, err := peakRSSMB("self")
			if err != nil {
				return nil, fmt.Errorf("reading peak RSS: %w", err)
			}
			peaks = append(peaks, rss)
		}
		setLatencyMetrics(o, ops, time.Now())
		if n := len(ops); n < opGroup {
			fmt.Fprintf(os.Stderr, "perfbench: only %d timed ops; p90 has fewer than 10 beyond it\n", n)
		}
		o.set("setup_s", "s", median(setups))
		o.set("peak_rss_mb", "MB", median(peaks))
		return o, nil
	}

	if _, err := lw.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// Untraced and traced ops alternate, so both see the same heap and host
	// state; the untraced ones are the base of trace.overhead_ratio and the
	// runtime counters.
	rec := newRecorder()
	o.spans = rec
	var base []float64
	var reps [][]*core.Report
	var rt runtimeDelta
	deadline := time.Now().Add(cfg.Duration)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		before := sampleRuntime()
		t0 := time.Now()
		check, err := lw.op()
		base = append(base, ms(time.Since(t0)))
		rt.add(before)
		if err != nil {
			return nil, err
		}
		ok := check()
		ok2, r, err := lw.traced(rec)
		if err != nil {
			return nil, err
		}
		o.attempted += 2
		for _, good := range []bool{ok, ok2} {
			if !good {
				o.wrong++
			}
		}
		reps = append(reps, r)
	}
	rt.set(o)
	untracedMS := median(base)
	spans := rec.snapshot()
	ops := perOp(spans, "op")
	traceSummary(o, ops, untracedMS)
	setSpanMetrics(o, spans, ops)
	setReportMetrics(o, reps, ops)
	if lw.threadScaling != nil {
		if err := setThreadSpeedup(o, lw.threadScaling); err != nil {
			return nil, err
		}
	}
	if lw.layers != nil {
		if err := lw.layers(o, ops, untracedMS); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// timeOps runs op back to back for d (at least three ops) and returns each
// op's start and exact wall, counting attempts and wrong outputs into o.
func timeOps(d time.Duration, op func() (func() bool, error), o *outcome) ([]opSample, error) {
	var ops []opSample
	deadline := time.Now().Add(d)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		check, err := op()
		ops = append(ops, opSample{start: t0, wall: ms(time.Since(t0))})
		o.attempted++
		if err != nil {
			return nil, err
		}
		if !check() {
			o.wrong++
		}
	}
	return ops, nil
}

// setThreadSpeedup reports the op wall at one thread over the wall at the
// run's thread count (median of three each), the paper's single-thread
// baseline. On a host with fewer cores than threads this is an
// oversubscription figure, not a speedup.
func setThreadSpeedup(o *outcome, run func(threads int) (time.Duration, error)) error {
	walls := func(threads int) (float64, error) {
		v := make([]float64, 0, 3)
		for i := 0; i < 3; i++ {
			d, err := run(threads)
			if err != nil {
				return 0, err
			}
			v = append(v, ms(d))
		}
		return median(v), nil
	}
	one, err := walls(1)
	if err != nil {
		return err
	}
	all, err := walls(0)
	if err != nil {
		return err
	}
	o.set("core.speedup_threads", "ratio", one/all)
	return nil
}

// setReportMetrics derives the core.* per-layer metrics from the reports
// each traced op collected: medians over ops of per-op sums. Stage walls are
// program-reported (Report.StageWall): stages 2-4 interleave inside one
// parallel loop and cannot be split by spans outside the program. Byte
// figures are computed from object sizes, not measured traffic. coo.sort_ms
// adds the program-reported X permute and sort (stage 1 of the prepared
// path) to the measured output re-sort spans of the same op.
func setReportMetrics(o *outcome, reps [][]*core.Report, ops []opStats) {
	type acc struct {
		stages                                 [core.NumStages]float64
		products, probesY, probesA, nnzZ, miss float64
		hits, compute, bytes, xsort, windows   float64
	}
	per := make([]acc, len(reps))
	for i, ops := range reps {
		a := &per[i]
		for _, r := range ops {
			for s := range r.StageWall {
				a.stages[s] += ms(r.StageWall[s])
			}
			a.xsort += ms(r.StageWall[core.StageInput])
			a.products += float64(r.Products)
			a.probesY += float64(r.ProbesHtY)
			a.probesA += float64(r.ProbesHtA)
			a.nnzZ += float64(r.NNZZ)
			a.hits += float64(r.HitsY)
			a.miss += float64(r.MissY)
			a.compute += r.ComputeTime().Seconds()
			a.bytes += float64(r.PeakBytes()) / (1 << 20)
			a.windows += float64(r.Windows)
		}
	}
	pick := func(f func(a acc) float64) float64 {
		v := make([]float64, len(per))
		for i, a := range per {
			v[i] = f(a)
		}
		return median(v)
	}
	names := [core.NumStages]string{"core.stage_input_ms", "core.stage_search_ms", "core.stage_accum_ms",
		"core.stage_write_ms", "core.stage_sort_ms"}
	for s, n := range names {
		o.set(n, "ms", pick(func(a acc) float64 { return a.stages[s] }))
	}
	o.set("core.products", "count", pick(func(a acc) float64 { return a.products }))
	o.set("core.probes_hty", "count", pick(func(a acc) float64 { return a.probesY }))
	o.set("core.probes_hta", "count", pick(func(a acc) float64 { return a.probesA }))
	o.set("core.nnz_z", "count", pick(func(a acc) float64 { return a.nnzZ }))
	o.set("core.probes_per_lookup", "ratio", pick(func(a acc) float64 { return ratio(a.probesY, a.hits+a.miss) }))
	o.set("core.hty_hit_ratio", "ratio", pick(func(a acc) float64 { return ratio(a.hits, a.hits+a.miss) }))
	o.set("core.products_per_s", "1/s", pick(func(a acc) float64 { return ratio(a.products, a.compute) }))
	o.set("core.bytes_computed_mb", "MB", pick(func(a acc) float64 { return a.bytes }))
	o.set("stream.windows", "count", pick(func(a acc) float64 { return a.windows }))
	if len(ops) == len(per) {
		for i := range per {
			per[i].xsort += ms(ops[i].ByName["coo.sort"])
		}
	}
	o.set("coo.sort_ms", "ms", pick(func(a acc) float64 { return a.xsort }))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
