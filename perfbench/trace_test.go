package main

import (
	"math"
	"testing"
	"time"

	"sparta/internal/core"
	"sparta/internal/gen"
)

func at(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// A synthetic op: root [0,100] with children A [10,40] (which has a child
// A1 [15,20]), B [30,60] overlapping A, and C [70,80].
func syntheticSpans() []span {
	return []span{
		{Op: 0, Parent: -1, Name: "op", Start: at(0), End: at(100)},
		{Op: 0, Parent: 0, Name: "A", Start: at(10), End: at(40)},
		{Op: 0, Parent: 1, Name: "A1", Start: at(15), End: at(20)},
		{Op: 0, Parent: 0, Name: "B", Start: at(30), End: at(60)},
		{Op: 0, Parent: 0, Name: "C", Start: at(70), End: at(80)},
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	spans := syntheticSpans()
	kids := children(spans)
	for _, c := range []struct {
		i    int
		want time.Duration
	}{
		{0, at(40)}, // 100 minus the union [10,60] and [70,80]
		{1, at(25)}, // 30 minus A1's 5
		{2, at(5)},
		{3, at(30)},
		{4, at(10)},
	} {
		if got := selfTime(spans, kids, c.i); got != c.want {
			t.Errorf("selfTime(%s) = %v, want %v", spans[c.i].Name, got, c.want)
		}
	}
	ops := perOp(spans, "op")
	if len(ops) != 1 {
		t.Fatalf("perOp found %d ops, want 1", len(ops))
	}
	st := ops[0]
	if st.Wall != at(100) || st.Residual != at(40) || math.Abs(st.Coverage-0.6) > 1e-12 {
		t.Errorf("op stats = wall %v residual %v coverage %v, want 100ms 40ms 0.6", st.Wall, st.Residual, st.Coverage)
	}
	if st.ByName["A"] != at(30) || st.ByName["A1"] != at(5) || st.Count["B"] != 1 {
		t.Errorf("per-name sums wrong: %v %v", st.ByName, st.Count)
	}
	if got := maxByName(spans, "op", "B"); got != 30 {
		t.Errorf("maxByName = %v, want 30", got)
	}
}

func TestCoveredClipsToParent(t *testing.T) {
	iv := [][2]time.Duration{{at(-5), at(5)}, {at(3), at(8)}, {at(9), at(20)}}
	if got := covered(iv, 0, at(10)); got != at(9) {
		t.Errorf("covered = %v, want 9ms", got)
	}
	if got := covered(nil, 0, at(10)); got != 0 {
		t.Errorf("covered(nil) = %v, want 0", got)
	}
}

// TestTracedOpSumsToWall traces a real one-shot contraction: its child
// spans run one after another, so their durations plus the residual must
// add up to the op's wall.
func TestTracedOpSumsToWall(t *testing.T) {
	x := gen.Random([]uint64{40, 30, 50}, 4000, 1)
	y := gen.Random([]uint64{50, 35, 20}, 3000, 2)
	rec := newRecorder()
	root := rec.newOp("op")
	z, rep, err := tracedOneShot(rec, root, "abc,cde->aebd", x, y, core.Options{Algorithm: core.AlgSparta, Threads: 2})
	rec.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() == 0 || rep == nil {
		t.Fatal("empty contraction")
	}
	spans := rec.snapshot()
	ops := perOp(spans, "op")
	if len(ops) != 1 {
		t.Fatalf("perOp found %d ops, want 1", len(ops))
	}
	var sum time.Duration
	for _, d := range ops[0].ByName {
		sum += d
	}
	if diff := ops[0].Wall - (sum + ops[0].Residual); diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("children %v + residual %v != wall %v", sum, ops[0].Residual, ops[0].Wall)
	}
	for _, n := range []string{"einsum.parse", "core.prepare", "core.contract", "coo.sort"} {
		if ops[0].Count[n] != 1 {
			t.Errorf("span %s recorded %d times, want 1", n, ops[0].Count[n])
		}
	}
}
