package coo

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// saveV2 writes ten to a temp .sptn file and returns the path.
func saveV2(t *testing.T, ten *Tensor) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.sptn")
	if err := ten.SaveBinV2(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func sortedRandom(t *testing.T, dims []uint64, nnz int, seed int64) *Tensor {
	t.Helper()
	ten := randomTensor(t, dims, nnz, seed)
	ten.Sort(1)
	ten.Dedup()
	return ten
}

func TestOpenMappedZeroCopy(t *testing.T) {
	ten := sortedRandom(t, []uint64{30, 8, 5}, 600, 21)
	path := saveV2(t, ten)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if mmapSupported && hostLittleEndian() && !m.ZeroCopy() {
		t.Error("v2 file on a little-endian unix host should map zero-copy")
	}
	if !m.Sorted() {
		t.Error("sorted file reported unsorted")
	}
	if m.NNZ() != ten.NNZ() || m.Order() != ten.Order() {
		t.Fatalf("shape mismatch: nnz %d order %d", m.NNZ(), m.Order())
	}
	if !m.Tensor().Equal(ten) {
		t.Fatal("mapped view differs from the written tensor")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Bytes() == 0 {
		t.Error("Bytes() = 0 on a non-empty mapping")
	}
}

func TestOpenMappedSurvivesUnlink(t *testing.T) {
	ten := sortedRandom(t, []uint64{12, 7}, 200, 22)
	path := saveV2(t, ten)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	// The mapping (or heap copy) must stay readable after the name is gone.
	sum := 0.0
	for _, v := range m.Tensor().Vals {
		sum += v
	}
	if !m.Tensor().Equal(ten) {
		t.Fatal("view invalid after unlink")
	}
}

func TestOpenMappedV1HeapFallback(t *testing.T) {
	ten := sortedRandom(t, []uint64{9, 6}, 120, 23)
	path := filepath.Join(t.TempDir(), "x.bin")
	if err := ten.SaveBin(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.ZeroCopy() {
		t.Error("v1 files have no alignment guarantee and must heap-load")
	}
	if !m.Sorted() {
		t.Error("fallback lost the sort property")
	}
	if !m.Tensor().Equal(ten) {
		t.Fatal("heap fallback differs from the written tensor")
	}
	// Window boundaries are recomputed from the data on the fallback path.
	ws, err := m.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	if ws.NNZ() != ten.NNZ() {
		t.Fatalf("stream nnz %d, want %d", ws.NNZ(), ten.NNZ())
	}
}

func TestMappedClose(t *testing.T) {
	ten := sortedRandom(t, []uint64{8, 4}, 50, 24)
	m, err := OpenMapped(saveV2(t, ten))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.ZeroCopy() {
		t.Error("ZeroCopy true after Close")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMappedStreamWindows(t *testing.T) {
	// Enough non-zeros that the v2 file stores several DefaultWindowNNZ
	// chunks, so the stream really walks multiple stored windows.
	ten := sortedRandom(t, []uint64{2048, 16, 8}, 20000, 25)
	if ten.NNZ() <= DefaultWindowNNZ {
		t.Fatalf("test tensor too small to carry a multi-chunk index: %d", ten.NNZ())
	}
	m, err := OpenMapped(saveV2(t, ten))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, cap := range []int{0, 100, DefaultWindowNNZ, 1 << 24} {
		ws, err := m.Stream(cap)
		if err != nil {
			t.Fatal(err)
		}
		if cap == 0 && ws.Windows() != 1 {
			t.Fatalf("cap 0 should stream one window, got %d", ws.Windows())
		}
		if cap == 100 && ws.Windows() < 2 {
			t.Fatalf("cap 100 should yield multiple windows, got %d", ws.Windows())
		}
		got := MustNew(ten.Dims, ten.NNZ())
		idx := make([]uint32, ten.Order())
		var prevLead int64 = -1
		for {
			w, err := ws.Next()
			if err != nil {
				t.Fatal(err)
			}
			if w == nil {
				break
			}
			if w.NNZ() == 0 {
				t.Fatal("empty window emitted")
			}
			// Every window boundary must be a mode-0 index change.
			if int64(w.Inds[0][0]) <= prevLead {
				t.Fatalf("cap %d: window starts at mode-0 index %d, previous window ended at %d",
					cap, w.Inds[0][0], prevLead)
			}
			prevLead = int64(w.Inds[0][w.NNZ()-1])
			for i := 0; i < w.NNZ(); i++ {
				w.Index(i, idx)
				got.Append(idx, w.Vals[i])
			}
		}
		if !got.Equal(ten) {
			t.Fatalf("cap %d: concatenated windows differ from the tensor", cap)
		}
		// Reset rewinds to the first window.
		if err := ws.Reset(); err != nil {
			t.Fatal(err)
		}
		w, err := ws.Next()
		if err != nil || w == nil {
			t.Fatalf("Next after Reset: %v, %v", w, err)
		}
		if w.Inds[0][0] != ten.Inds[0][0] {
			t.Fatal("Reset did not rewind to the first window")
		}
	}
}

func TestMappedUnsortedCannotStream(t *testing.T) {
	ten := MustNew([]uint64{5, 5}, 0)
	ten.Append([]uint32{4, 0}, 1)
	ten.Append([]uint32{0, 1}, 2)
	m, err := OpenMapped(saveV2(t, ten))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Sorted() {
		t.Fatal("unsorted file reported sorted")
	}
	if _, err := m.Stream(64); err == nil {
		t.Fatal("Stream on an unsorted file must error")
	}
}

// TestMappedRejectsMisalignedWindow: a stored window boundary that is not a
// mode-0 index change would let the streaming driver split a sub-tensor, so
// the open-time spot check must refuse the file.
func TestMappedRejectsMisalignedWindow(t *testing.T) {
	if !mmapSupported || !hostLittleEndian() {
		t.Skip("spot check runs only on the zero-copy path")
	}
	var buf bytes.Buffer
	buf.WriteString(binMagic)
	for _, v := range []uint32{binVersion2, 2, binFlagSorted} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, v := range []uint64{4, 2} { // nnz, nwin
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, v := range []uint64{4, 3} { // dims
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, v := range []uint64{0, 1} { // boundary 1 splits the i=0 group
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, col := range [][]uint32{{0, 0, 1, 2}, {0, 1, 0, 0}} {
		binary.Write(&buf, binary.LittleEndian, col)
	}
	binary.Write(&buf, binary.LittleEndian, []float64{1, 2, 3, 4})
	path := filepath.Join(t.TempDir(), "bad.sptn")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenMapped(path)
	if err == nil || !strings.Contains(err.Error(), "window index") {
		t.Fatalf("want a window-index error, got %v", err)
	}
}

func TestGroupCapped(t *testing.T) {
	b := []int{0, 10, 25, 30, 100, 110}
	cases := []struct {
		limit int
		want  []int
	}{
		{0, []int{0, 110}},               // no cap: one window
		{1000, []int{0, 110}},            // everything fits one window
		{30, []int{0, 30, 100, 110}},     // merge up to the cap
		{1, []int{0, 10, 25, 30, 100, 110}}, // nothing merges
		{70, []int{0, 30, 100, 110}},     // the 70-wide chunk stays whole
	}
	for _, c := range cases {
		got := groupCapped(b, c.limit)
		if len(got) != len(c.want) {
			t.Errorf("limit %d: %v, want %v", c.limit, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("limit %d: %v, want %v", c.limit, got, c.want)
				break
			}
		}
	}
}

// splitAtMode0 cuts ten into runs at mode-0 boundaries so each run is a
// valid disjoint, ascending spool input.
func splitAtMode0(ten *Tensor, target int) []*Tensor {
	b := ten.ChunkBoundaries(target)
	runs := make([]*Tensor, 0, len(b)-1)
	for i := 1; i < len(b); i++ {
		lo, hi := b[i-1], b[i]
		r := &Tensor{Dims: ten.Dims, Inds: make([][]uint32, ten.Order()), Vals: ten.Vals[lo:hi]}
		for m := range ten.Inds {
			r.Inds[m] = ten.Inds[m][lo:hi]
		}
		runs = append(runs, r)
	}
	return runs
}

func TestRunSpoolRoundTrip(t *testing.T) {
	ten := sortedRandom(t, []uint64{50, 6, 4}, 2000, 26)
	runs := splitAtMode0(ten, 150)
	if len(runs) < 3 {
		t.Fatalf("want several runs, got %d", len(runs))
	}
	sp, err := NewRunSpool(t.TempDir(), ten.Dims)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.Append(MustNew(ten.Dims, 0)); err != nil {
		t.Fatalf("empty run should be a no-op: %v", err)
	}
	for _, r := range runs {
		if err := sp.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if sp.NNZ() != ten.NNZ() || sp.Runs() != len(runs) {
		t.Fatalf("spool counts nnz=%d runs=%d, want %d/%d", sp.NNZ(), sp.Runs(), ten.NNZ(), len(runs))
	}
	m, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Sorted() {
		t.Error("materialized spool must be sorted")
	}
	if !m.Tensor().Equal(ten) {
		t.Fatal("materialized tensor differs from the spooled runs")
	}
	// The spool is consumed; a second Materialize must refuse.
	if _, err := sp.Materialize(); err == nil {
		t.Fatal("Materialize after Materialize should error")
	}
}

func TestRunSpoolEmpty(t *testing.T) {
	sp, err := NewRunSpool(t.TempDir(), []uint64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.NNZ() != 0 {
		t.Fatalf("empty spool materialized %d non-zeros", m.NNZ())
	}
}

func TestRunSpoolRejectsDisorder(t *testing.T) {
	dims := []uint64{8, 8}
	sp, err := NewRunSpool(t.TempDir(), dims)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	a := MustNew(dims, 0)
	a.Append([]uint32{3, 0}, 1)
	if err := sp.Append(a); err != nil {
		t.Fatal(err)
	}
	// Overlapping (equal boundary coordinate) run must be refused.
	b := MustNew(dims, 0)
	b.Append([]uint32{3, 0}, 2)
	if err := sp.Append(b); err == nil {
		t.Fatal("overlapping run accepted")
	}
	// Wrong order too.
	c := MustNew([]uint64{8, 8, 8}, 0)
	c.Append([]uint32{4, 0, 0}, 3)
	if err := sp.Append(c); err == nil {
		t.Fatal("wrong-order run accepted")
	}
}

func TestMergeRunsConcat(t *testing.T) {
	ten := sortedRandom(t, []uint64{40, 5}, 900, 27)
	runs := splitAtMode0(ten, 100)
	// nil and empty runs are skipped.
	withJunk := append([]*Tensor{nil, MustNew(ten.Dims, 0)}, runs...)
	z, err := MergeRuns(ten.Dims, withJunk)
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(ten) {
		t.Fatal("disjoint-run merge differs from the source tensor")
	}
	// Single live run: storage adopted as-is.
	z1, err := MergeRuns(ten.Dims, []*Tensor{nil, ten})
	if err != nil {
		t.Fatal(err)
	}
	if !z1.Equal(ten) {
		t.Fatal("single-run merge mismatch")
	}
	// No runs at all: a valid empty tensor.
	z0, err := MergeRuns(ten.Dims, nil)
	if err != nil {
		t.Fatal(err)
	}
	if z0.NNZ() != 0 {
		t.Fatalf("empty merge produced %d non-zeros", z0.NNZ())
	}
	// Order mismatch is an error.
	if _, err := MergeRuns([]uint64{4}, []*Tensor{ten}); err == nil {
		t.Fatal("order mismatch accepted")
	}
}

// TestMergeRunsRejectsDisorder: runs that share a coordinate or arrive out
// of order are an error, not a silent summing merge — every producer emits
// disjoint ascending runs, so anything else is a producer bug.
func TestMergeRunsRejectsDisorder(t *testing.T) {
	dims := []uint64{4, 4}
	mk := func(coords ...[2]uint32) *Tensor {
		r := MustNew(dims, len(coords))
		for _, c := range coords {
			r.Append([]uint32{c[0], c[1]}, 1)
		}
		return r
	}
	a := mk([2]uint32{0, 0}, [2]uint32{1, 0})
	cases := map[string][]*Tensor{
		"overlapping":  {a, mk([2]uint32{0, 3}, [2]uint32{2, 1})},
		"shared tuple": {a, mk([2]uint32{1, 0}, [2]uint32{2, 1})},
		"descending":   {mk([2]uint32{3, 3}), a},
		"third run":    {a, mk([2]uint32{2, 0}), mk([2]uint32{1, 2})},
	}
	for name, runs := range cases {
		if _, err := MergeRuns(dims, runs); err == nil {
			t.Errorf("%s runs accepted", name)
		}
	}
}
