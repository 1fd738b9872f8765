package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Spans of one op share Op; Parent is the
// index of the span that caused this one (-1 for an op's root).
type span struct {
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. The benchmark opens
// spans only around calls into the program's public functions; nothing is
// traced inside the program. A nil recorder records nothing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newOp starts an op's root span and returns its index.
func (r *recorder) newOp(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.ops
	r.ops++
	r.spans = append(r.spans, span{Op: op, Parent: -1, Name: name, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// start opens a child span of parent.
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: r.spans[parent].Op, Parent: parent, Name: name, Start: now})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// record adds an already measured child span.
func (r *recorder) record(parent int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: r.spans[parent].Op, Parent: parent, Name: name,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	buf, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, v := range clipped {
		if open && v[0] <= curB {
			curB = max(curB, v[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v[0], v[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// children indexes spans by parent.
func children(spans []span) map[int][]int {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// selfTime is span i's duration minus the part of its interval its children
// cover.
func selfTime(spans []span, kids map[int][]int, i int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids[i]))
	for _, k := range kids[i] {
		iv = append(iv, [2]time.Duration{spans[k].Start, spans[k].End})
	}
	s := spans[i]
	return s.dur() - covered(iv, s.Start, s.End)
}

// opStats is the per-op view of a traced run: the root wall, the residual
// no child span accounts for, coverage = 1 - residual/wall, and the summed
// duration of every named span below the root.
type opStats struct {
	Wall     time.Duration
	Residual time.Duration
	Coverage float64
	ByName   map[string]time.Duration
	Count    map[string]int
}

// perOp computes opStats for every root span whose name is root.
func perOp(spans []span, root string) []opStats {
	kids := children(spans)
	var out []opStats
	for i, s := range spans {
		if s.Parent != -1 || s.Name != root || s.End <= s.Start {
			continue
		}
		st := opStats{Wall: s.dur(), ByName: map[string]time.Duration{}, Count: map[string]int{}}
		st.Residual = selfTime(spans, kids, i)
		st.Coverage = 1 - float64(st.Residual)/float64(st.Wall)
		stack := append([]int(nil), kids[i]...)
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			st.ByName[spans[k].Name] += spans[k].dur()
			st.Count[spans[k].Name]++
			stack = append(stack, kids[k]...)
		}
		out = append(out, st)
	}
	return out
}

// medianByName is the median over ops of each op's summed duration of the
// named span, in ms (ops without the span count as 0).
func medianByName(ops []opStats, name string) float64 {
	v := make([]float64, len(ops))
	for i, o := range ops {
		v[i] = ms(o.ByName[name])
	}
	return median(v)
}

// maxByName is the median over ops of the longest single span of that name
// within the op (the slowest of concurrent legs), in ms.
func maxByName(spans []span, root, name string) float64 {
	longest := map[int]time.Duration{}
	roots := map[int]bool{}
	for _, s := range spans {
		if s.Parent == -1 && s.Name == root {
			roots[s.Op] = true
		}
	}
	for _, s := range spans {
		if s.Name == name && roots[s.Op] && s.dur() > longest[s.Op] {
			longest[s.Op] = s.dur()
		}
	}
	v := make([]float64, 0, len(longest))
	for _, d := range longest {
		v = append(v, ms(d))
	}
	return median(v)
}

// traceSummary sets the trace.* metrics: coverage is the median over ops of
// covered/wall, overhead the traced op median over the untraced one.
func traceSummary(o *outcome, ops []opStats, untracedMedianMS float64) {
	cov := make([]float64, len(ops))
	walls := make([]float64, len(ops))
	for i, st := range ops {
		cov[i] = st.Coverage
		walls[i] = ms(st.Wall)
	}
	o.set("trace.coverage", "ratio", median(cov))
	if untracedMedianMS > 0 {
		o.set("trace.overhead_ratio", "ratio", median(walls)/untracedMedianMS)
	}
}

// spanMedianMS is the median duration of the individual spans with the
// given name, in ms (0 when there are none).
func spanMedianMS(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, ms(s.dur()))
		}
	}
	return median(v)
}

// perOpSpanMetrics maps span names to the per-layer metrics that report the
// median over ops of each op's summed span time.
var perOpSpanMetrics = map[string]string{
	"core.prepare":         "core.prepare_ms",
	"core.contract":        "core.contract_ms",
	"engine.lookup":        "engine.lookup_ms",
	"engine.admit":         "engine.admit_ms",
	"engine.fingerprint_z": "engine.fingerprint_z_ms",
	"stream.open":          "stream.open_ms",
	"dist.partition":       "dist.partition_ms",
	"dist.merge":           "dist.merge_ms",
	"plan.plan":            "plan.plan_ms",
}

// setSpanMetrics sets every span-timed per-layer metric of a traced run:
// per-op sums, the per-call median of plan-cache misses (one request in
// twenty misses, so a per-op median would read 0), and the slowest shard
// leg of each op.
func setSpanMetrics(o *outcome, spans []span, ops []opStats) {
	for name, m := range perOpSpanMetrics {
		o.set(m, "ms", medianByName(ops, name))
	}
	o.set("engine.prepare_miss_ms", "ms", spanMedianMS(spans, "engine.prepare_miss"))
	o.set("dist.shard_max_ms", "ms", maxByName(spans, "op", "dist.shard"))
}
