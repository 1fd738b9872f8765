package dist

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over shard names: each shard contributes
// vnodes points (splitmix64 of name+replica), sorted on a 64-bit circle; a
// key is owned by the first point clockwise from it. Two properties matter
// here beyond plain balance, and FuzzShardRing pins both:
//
//   - Rebuild determinism: the same shard set yields the same ownership no
//     matter the order names were listed in (points tie-break on name).
//   - Minimal movement: adding a shard moves keys only onto the new shard
//     (≈1/S of them); removing one moves only the removed shard's keys.
//
// The coordinator routes plan fingerprints through the ring (OwnerOf), so
// callers that pin whole requests to the shard holding the warm PreparedY
// keep that affinity as the fleet resizes. Partitions do not use it: X is
// cut by leading-mode ranges (Partition).
type Ring struct {
	names  []string
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int // index into names
}

// DefaultVNodes is the per-shard virtual-node count when NewRing gets 0.
// 64 points per shard keeps the max/mean key imbalance under ~1.35 for small
// fleets (TestRingBalance) at 1 KiB of ring per shard.
const DefaultVNodes = 64

// ringSeed domain-separates the ring's point hashes from the keys they are
// compared against (both use mix64).
const ringSeed = 0x9e3779b97f4a7c15

// mix64 is splitmix64's finalizer — the same full-avalanche mixer the
// engine's content fingerprints and the hashtab kernels use.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over the given shard names (vnodes <1 selects
// DefaultVNodes). Names must be non-empty and unique — they are the
// identity the minimal-movement property is defined over.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("dist: ring needs at least one shard")
	}
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if n == "" {
			return nil, fmt.Errorf("dist: empty shard name")
		}
		if seen[n] {
			return nil, fmt.Errorf("dist: duplicate shard name %q", n)
		}
		seen[n] = true
	}
	r := &Ring{
		names:  append([]string(nil), names...),
		points: make([]ringPoint, 0, len(names)*vnodes),
	}
	for s, name := range r.names {
		h := uint64(ringSeed)
		for i := 0; i < len(name); i++ {
			h = mix64(h ^ uint64(name[i]))
		}
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: mix64(h ^ uint64(v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Colliding points order by name, never by input position, so a
		// permuted shard list rebuilds to identical ownership.
		return r.names[a.shard] < r.names[b.shard]
	})
	return r, nil
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return len(r.names) }

// Names returns a copy of the shard names in registration order (the index
// space Owner returns).
func (r *Ring) Names() []string { return append([]string(nil), r.names...) }

// Name returns the shard name for an Owner index.
func (r *Ring) Name(s int) string { return r.names[s] }

// Owner returns the index of the shard owning key: the shard of the first
// ring point at or clockwise from the key's position.
func (r *Ring) Owner(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
