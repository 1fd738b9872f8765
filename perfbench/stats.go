package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for an empty slice). v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// tailQuantile is the percentile the library workloads report as tail_ms:
// p90 keeps at least ten samples beyond it in a group of opGroup ops.
const tailQuantile = 0.90

// opGroup is how many consecutive ops of a library workload form one group
// of the latency metrics.
const opGroup = 100

// opSample is one timed op of a closed-loop library workload.
type opSample struct {
	start time.Time
	wall  float64 // ms
}

// setLatencyMetrics reports the common end-to-end timing metrics of a
// closed-loop library workload from its timed ops, in order, and the end of
// the timed phase. The ops are cut into groups of about opGroup consecutive
// ops (one group when there are fewer than 2*opGroup); op_p50_ms and tail_ms
// are the lower quartiles of the groups' medians and tailQuantile walls, and
// ops_per_s the upper quartile of the groups' rates, check time included.
// Host stalls on a shared machine only ever add time, so a stretch they
// spoil moves a few groups, not the result.
func setLatencyMetrics(o *outcome, ops []opSample, end time.Time) {
	groups := max(1, len(ops)/opGroup)
	var p50s, tails, rates []float64
	for g := 0; g < groups; g++ {
		lo, hi := g*len(ops)/groups, (g+1)*len(ops)/groups
		walls := make([]float64, 0, hi-lo)
		for _, op := range ops[lo:hi] {
			walls = append(walls, op.wall)
		}
		stop := end
		if hi < len(ops) {
			stop = ops[hi].start
		}
		p50s = append(p50s, median(walls))
		tails = append(tails, quantile(walls, tailQuantile))
		rates = append(rates, float64(hi-lo)/stop.Sub(ops[lo].start).Seconds())
	}
	o.set("op_p50_ms", "ms", quantile(p50s, 0.25))
	o.set("tail_ms", "ms", quantile(tails, 0.25))
	o.set("ops_per_s", "1/s", quantile(rates, 0.75))
}
