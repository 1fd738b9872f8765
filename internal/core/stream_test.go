package core

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"strings"
	"testing"

	"sparta/internal/coo"
)

// TestContractStreamMatchesInMemory is the out-of-core driver's bitwise
// oracle: for both hash kernels, a sweep of window sizes, and both Z sinks
// (heap merge and file spool), the streamed result must equal the one-shot
// in-memory contraction exactly — same coordinates, same values, same
// order. This is the property the v2 window alignment exists to guarantee.
func TestContractStreamMatchesInMemory(t *testing.T) {
	x := randomSparse([]uint64{40, 9, 8}, 700, 31)
	y := randomSparse([]uint64{8, 7}, 80, 32)
	cmX, cmY := []int{2}, []int{0}
	for _, kernel := range []Kernel{KernelFlat, KernelChained} {
		opt := Options{Algorithm: AlgSparta, Kernel: kernel, Threads: 2}
		pr, err := PrepareY(y, cmY, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := pr.Contract(context.Background(), x, cmX, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, windowNNZ := range []int{0, 13, 100, 1 << 20} {
			for _, spill := range []bool{false, true} {
				xs, err := NewTensorStream(x, cmX, windowNNZ, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				z, rep, err := ContractStream(context.Background(), xs, pr,
					StreamOptions{Options: opt, SpillZ: spill, SpillDir: t.TempDir()})
				if err != nil {
					t.Fatalf("kernel %v window %d spill %v: %v", kernel, windowNNZ, spill, err)
				}
				if !z.Equal(want) {
					t.Fatalf("kernel %v window %d spill %v: streamed output differs from in-memory",
						kernel, windowNNZ, spill)
				}
				if !rep.Streamed {
					t.Error("report not marked streamed")
				}
				if rep.SpilledZ != spill {
					t.Errorf("report SpilledZ = %v, want %v", rep.SpilledZ, spill)
				}
				if windowNNZ == 13 && rep.Windows < 2 {
					t.Errorf("window cap 13 ran in %d windows", rep.Windows)
				}
				if windowNNZ == 1<<20 && rep.Windows != 1 {
					t.Errorf("uncapped stream ran in %d windows", rep.Windows)
				}
				if rep.NNZZ != want.NNZ() {
					t.Errorf("report NNZZ = %d, want %d", rep.NNZZ, want.NNZ())
				}
			}
		}
	}
}

// TestContractStreamMappedFile runs the full out-of-core loop: X saved as a
// sorted v2 file, opened as an mmap view, streamed against the prepared
// table, and compared bitwise with the in-memory result.
func TestContractStreamMappedFile(t *testing.T) {
	// X already in contraction order (free modes first) so the sorted file
	// is directly streamable; enough non-zeros that the file stores more
	// than one DefaultWindowNNZ chunk.
	x := randomSparse([]uint64{4096, 6, 5}, 12000, 33)
	y := randomSparse([]uint64{5, 9}, 70, 34)
	cmX, cmY := []int{2}, []int{0}
	opt := Options{Algorithm: AlgSparta, Kernel: KernelFlat, Threads: 2}
	pr, err := PrepareY(y, cmY, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pr.Contract(context.Background(), x, cmX, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.sptn"
	if err := x.SaveBinV2(path); err != nil {
		t.Fatal(err)
	}
	m, err := coo.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	xs, err := m.Stream(200)
	if err != nil {
		t.Fatal(err)
	}
	z, rep, err := ContractStream(context.Background(), xs, pr, StreamOptions{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want) {
		t.Fatal("mmap-streamed output differs from in-memory")
	}
	if rep.Windows < 2 {
		t.Fatalf("expected multiple windows, got %d", rep.Windows)
	}
}

// TestContractStreamCorruptMappedWindow: mapping a v2 file skips index
// validation, so an out-of-range index in a later window must surface as an
// error from the window stream — never a panic or a wrong Z.
func TestContractStreamCorruptMappedWindow(t *testing.T) {
	x := randomSparse([]uint64{4096, 6, 5}, 12000, 33)
	y := randomSparse([]uint64{5, 9}, 70, 34)
	opt := Options{Algorithm: AlgSparta, Kernel: KernelFlat, Threads: 2}
	pr, err := PrepareY(y, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.sptn"
	if err := x.SaveBinV2(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// v2 layout: 32-byte header (nwin at byte 24), dims, window starts,
	// then one 8-byte-padded uint32 column per mode. Overwrite the last
	// non-zero's contract-mode index (mode 2, size 5).
	order, nnz := uint64(x.Order()), uint64(x.NNZ())
	nwin := binary.LittleEndian.Uint64(raw[24:32])
	if nwin < 2 {
		t.Fatalf("file stores %d window(s); the corruption must sit past the first", nwin)
	}
	col := (4*nnz + 7) &^ 7
	off := 32 + 8*order + 8*nwin + 2*col + 4*(nnz-1)
	binary.LittleEndian.PutUint32(raw[off:], 1000)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := coo.OpenMapped(path)
	if err != nil {
		t.Fatalf("open must not validate every index: %v", err)
	}
	defer m.Close()
	xs, err := m.Stream(200)
	if err != nil {
		t.Fatal(err)
	}
	z, _, err := ContractStream(context.Background(), xs, pr, StreamOptions{Options: opt})
	var fe *coo.FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("corrupt later window: got z=%v err=%v, want a format error", z != nil, err)
	}
}

func TestNewTensorStreamErrors(t *testing.T) {
	x := randomSparse([]uint64{6, 5, 4}, 40, 35)
	if _, err := NewTensorStream(nil, []int{0}, 0, 1, false); err == nil {
		t.Error("nil tensor accepted")
	}
	if _, err := NewTensorStream(x, nil, 0, 1, false); err == nil {
		t.Error("empty contract-mode list accepted")
	}
	if _, err := NewTensorStream(x, []int{0, 1, 2}, 0, 1, false); err == nil {
		t.Error("fully contracted X accepted (no free mode to window on)")
	}
	if _, err := NewTensorStream(x, []int{7}, 0, 1, false); err == nil {
		t.Error("out-of-range contract mode accepted")
	}
}

func TestNewTensorStreamPermutes(t *testing.T) {
	// Contract mode in front: the stream must re-order to free-first and
	// still produce the in-memory result.
	x := randomSparse([]uint64{5, 20, 6}, 300, 36)
	y := randomSparse([]uint64{5, 8}, 40, 37)
	opt := Options{Algorithm: AlgSparta, Kernel: KernelFlat}
	pr, err := PrepareY(y, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pr.Contract(context.Background(), x, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	clone := x.Clone()
	xs, err := NewTensorStream(x, []int{0}, 50, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(clone) {
		t.Fatal("inPlace=false mutated the caller's tensor")
	}
	z, _, err := ContractStream(context.Background(), xs, pr, StreamOptions{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want) {
		t.Fatal("permuted stream differs from in-memory")
	}
}

func TestContractStreamErrors(t *testing.T) {
	x := randomSparse([]uint64{10, 6, 5}, 120, 38)
	y := randomSparse([]uint64{5, 4}, 30, 39)
	opt := Options{Algorithm: AlgSparta, Kernel: KernelFlat}
	pr, err := PrepareY(y, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	mkStream := func() XStream {
		xs, err := NewTensorStream(x, []int{2}, 0, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		return xs
	}

	if _, _, err := ContractStream(context.Background(), nil, pr, StreamOptions{Options: opt}); err == nil {
		t.Error("nil stream accepted")
	}
	if _, _, err := ContractStream(context.Background(), mkStream(), nil, StreamOptions{Options: opt}); err == nil {
		t.Error("nil prepared table accepted")
	}
	bad := opt
	bad.Algorithm = AlgSPA
	if _, _, err := ContractStream(context.Background(), mkStream(), pr, StreamOptions{Options: bad}); err == nil {
		t.Error("non-Sparta algorithm accepted")
	}
	bad = opt
	bad.Kernel = KernelChained
	if _, _, err := ContractStream(context.Background(), mkStream(), pr, StreamOptions{Options: bad}); err == nil {
		t.Error("kernel mismatch with the prepared table accepted")
	}

	// Contract-dim mismatch between the stream and the prepared Y.
	x2 := randomSparse([]uint64{10, 6, 7}, 120, 40)
	xs2, err := NewTensorStream(x2, []int{2}, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ContractStream(context.Background(), xs2, pr, StreamOptions{Options: opt})
	if err == nil || !strings.Contains(err.Error(), "size") {
		t.Errorf("dim mismatch: got %v", err)
	}

	// Output cap enforcement mid-stream.
	capped := opt
	capped.MaxOutputNNZ = 1
	if _, _, err := ContractStream(context.Background(), mkStream(), pr, StreamOptions{Options: capped}); err == nil {
		t.Error("MaxOutputNNZ=1 did not abort")
	}

	// Context cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ContractStream(ctx, mkStream(), pr, StreamOptions{Options: opt}); err == nil {
		t.Error("cancelled context accepted")
	}
}
