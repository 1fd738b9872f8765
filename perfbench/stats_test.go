package main

import (
	"math"
	"testing"
	"time"
)

// TestLatencyGroups checks that a stretch of stalled ops moves the groups
// it falls in and not the reported quartiles, and that rates count the
// time between ops.
func TestLatencyGroups(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ops []opSample
	at := t0
	for i := 0; i < 4*opGroup; i++ {
		wall := 10.0
		if i >= 3*opGroup {
			wall = 50 // the last group is stalled throughout
		}
		ops = append(ops, opSample{start: at, wall: wall})
		// Each op takes its wall plus 10 ms of checking before the next.
		at = at.Add(time.Duration((wall + 10) * float64(time.Millisecond)))
	}
	o := newOutcome()
	setLatencyMetrics(o, ops, at)
	if got := o.metrics["op_p50_ms"].Value; got != 10 {
		t.Errorf("op_p50_ms = %v, want 10", got)
	}
	if got := o.metrics["tail_ms"].Value; got != 10 {
		t.Errorf("tail_ms = %v, want 10", got)
	}
	if got := o.metrics["ops_per_s"].Value; math.Abs(got-50) > 1e-9 {
		t.Errorf("ops_per_s = %v, want 50 (one op per 20 ms)", got)
	}

	// Fewer than two groups' worth of ops is one group: plain quantiles.
	o = newOutcome()
	setLatencyMetrics(o, ops[3*opGroup-10:3*opGroup+10], at)
	if got := o.metrics["op_p50_ms"].Value; got != 30 {
		t.Errorf("one group: op_p50_ms = %v, want 30", got)
	}
}
