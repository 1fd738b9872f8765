package dist

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	return names
}

func TestRingDeterministicAcrossRebuilds(t *testing.T) {
	names := ringNames(5)
	a, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		k := rng.Uint64()
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %#x: owners differ across identical rebuilds", k)
		}
	}
}

func TestRingOrderIndependence(t *testing.T) {
	names := ringNames(6)
	perm := []string{names[3], names[0], names[5], names[1], names[4], names[2]}
	a, _ := NewRing(names, 32)
	b, _ := NewRing(perm, 32)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		k := rng.Uint64()
		if a.Name(a.Owner(k)) != b.Name(b.Owner(k)) {
			t.Fatalf("key %#x: owner name depends on registration order", k)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate shard name accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Error("empty shard name accepted")
	}
}

// TestRingBalance bounds the max/mean key imbalance for random keys — the
// property that spreads plan fingerprints evenly over the fleet. The
// bound is generous (vnode placement is random-ish, not perfect), but a
// broken point hash (e.g. all points colliding) blows far past it.
func TestRingBalance(t *testing.T) {
	for _, S := range []int{2, 4, 8} {
		r, err := NewRing(ringNames(S), 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, S)
		rng := rand.New(rand.NewSource(int64(S)))
		const keys = 200000
		for i := 0; i < keys; i++ {
			counts[r.Owner(rng.Uint64())]++
		}
		mean := float64(keys) / float64(S)
		for s, c := range counts {
			ratio := float64(c) / mean
			if ratio > 1.6 || ratio < 0.5 {
				t.Errorf("S=%d: shard %d holds %.2fx the mean (%d keys)", S, s, ratio, c)
			}
		}
	}
}

// TestRingMinimalMovement is the deterministic version of the fuzz
// properties: adding a shard moves keys only to the new shard; removing one
// moves only its keys; and the moved fraction on add is near 1/S.
func TestRingMinimalMovement(t *testing.T) {
	base := ringNames(4)
	r4, _ := NewRing(base, 0)
	r5, _ := NewRing(append(append([]string(nil), base...), "shard-new"), 0)
	rng := rand.New(rand.NewSource(7))
	const keys = 100000
	moved := 0
	for i := 0; i < keys; i++ {
		k := rng.Uint64()
		oldName := r4.Name(r4.Owner(k))
		newName := r5.Name(r5.Owner(k))
		if oldName != newName {
			moved++
			if newName != "shard-new" {
				t.Fatalf("key %#x moved %s -> %s, not to the added shard", k, oldName, newName)
			}
		}
	}
	frac := float64(moved) / keys
	// Expect ~1/5 of keys on the new shard; tolerate 2x vnode placement skew.
	if frac > 2.0/5 || frac < 0.05 {
		t.Errorf("add moved %.1f%% of keys, want ≈20%%", 100*frac)
	}

	// Removal: drop shard-2; every key previously elsewhere must not move.
	removed := []string{base[0], base[1], base[3]}
	r3, _ := NewRing(removed, 0)
	for i := 0; i < keys; i++ {
		k := rng.Uint64()
		oldName := r4.Name(r4.Owner(k))
		newName := r3.Name(r3.Owner(k))
		if oldName != "shard-2" && oldName != newName {
			t.Fatalf("key %#x moved %s -> %s though its shard was not removed", k, oldName, newName)
		}
	}
}

// FuzzShardRing pins the consistent-hashing contract against adversarial
// shard sets and keys: (1) rebuild determinism including under permutation,
// (2) add-one-shard moves keys only onto the new shard and at most
// ~(1/S + slack) of them, (3) remove-one-shard moves only the removed
// shard's keys.
func FuzzShardRing(f *testing.F) {
	f.Add([]byte("ab"), uint16(3), uint16(17))
	f.Add([]byte("shard"), uint16(8), uint16(64))
	f.Add([]byte{0xff, 0x00, 0x41}, uint16(1), uint16(1))
	f.Add([]byte("aaaaaaaaaaaaaaaa"), uint16(12), uint16(5))
	f.Fuzz(func(t *testing.T, nameSeed []byte, nShards, vnodes uint16) {
		S := int(nShards%16) + 1
		// Floor the vnode count: the movement *target* properties are exact
		// at any vnode count, but the movement *fraction* bound is
		// statistical and needs enough ring points to concentrate (a single
		// point's arc length is exponentially distributed).
		v := int(vnodes%113) + 16
		names := make([]string, S)
		for i := range names {
			names[i] = fmt.Sprintf("%x-%d", nameSeed, i)
		}
		r, err := NewRing(names, v)
		if err != nil {
			t.Fatal(err)
		}

		// Keys derive from the fuzz input so the corpus explores the space.
		var seed uint64 = 0x9e37
		for _, b := range nameSeed {
			seed = mix64(seed ^ uint64(b))
		}
		keys := make([]uint64, 512)
		for i := range keys {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], seed+uint64(i))
			keys[i] = mix64(binary.LittleEndian.Uint64(buf[:]))
		}

		// (1) Determinism: a permuted rebuild owns every key identically.
		perm := append([]string(nil), names...)
		for i := range perm {
			j := int(mix64(seed+uint64(i)) % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		rp, err := NewRing(perm, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if r.Name(r.Owner(k)) != rp.Name(rp.Owner(k)) {
				t.Fatalf("key %#x: ownership depends on registration order", k)
			}
		}

		// (2) Add one shard: movement only onto it, bounded fraction.
		grown, err := NewRing(append(append([]string(nil), names...), fmt.Sprintf("%x-added", nameSeed)), v)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range keys {
			oldName := r.Name(r.Owner(k))
			newName := grown.Name(grown.Owner(k))
			if oldName != newName {
				if newName != fmt.Sprintf("%x-added", nameSeed) {
					t.Fatalf("key %#x moved %s -> %s, not to the added shard", k, oldName, newName)
				}
				moved++
			}
		}
		// Expected share 1/(S+1); low vnode counts are noisy, so bound at
		// 3x the expectation plus an absolute floor for tiny samples.
		if limit := 3*len(keys)/(S+1) + 32; moved > limit {
			t.Fatalf("add moved %d/%d keys (S=%d, vnodes=%d), limit %d", moved, len(keys), S, v, limit)
		}

		// (3) Remove one shard: only its keys move.
		if S > 1 {
			victim := int(seed % uint64(S))
			var kept []string
			for i, n := range names {
				if i != victim {
					kept = append(kept, n)
				}
			}
			shrunk, err := NewRing(kept, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				oldName := r.Name(r.Owner(k))
				newName := shrunk.Name(shrunk.Owner(k))
				if oldName != names[victim] && oldName != newName {
					t.Fatalf("key %#x moved %s -> %s though its shard stayed", k, oldName, newName)
				}
			}
		}
	})
}
