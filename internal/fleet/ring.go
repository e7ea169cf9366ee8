// Package fleet turns the single-deployment behaviotd pipeline into a
// multi-tenant daemon: one process hosts many independent smart homes
// ("tenants"), each with its own online monitor, recent-event rings,
// event log, and crash-safe checkpoint store, all classifying over one
// shared read-only trained model — the ISP-scale deployment the
// ROADMAP's north star calls for.
//
// Tenants are placed on a fixed set of shards by a consistent hash
// ring. A shard is a serialization domain: every ingest connection
// feeds its tenant's monitor under the shard's lock, so feed
// concurrency is bounded by the shard count regardless of how many
// tenants are registered, and each shard runs one housekeeping worker
// that lands periodic checkpoints for its tenants. Per-tenant state
// never crosses a shard boundary, which is what makes the fleet
// isolation oracle hold: N tenants replaying concurrently produce
// byte-identical event logs and snapshots to N single-tenant runs, for
// any shard count.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerShard is how many virtual points each shard contributes to
// the ring. More points smooth the tenant distribution across shards;
// 128 keeps every shard within ±50% of the mean for realistic fleets
// (pinned by TestRingBalance) at a ring size that is still trivial to
// build and search.
const vnodesPerShard = 128

// Ring is a consistent hash ring mapping tenant IDs onto shard
// indices. Placement is a pure function of (tenant ID, shard count):
// the same tenant lands on the same shard in every process, and
// growing the shard count moves only ~1/(n+1) of the tenants (the
// consistent-hashing property, pinned by TestRingStability). The ring
// is immutable after New; lookups are safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over shards worker indices [0, shards).
func NewRing(shards int) *Ring {
	if shards < 1 {
		shards = 1
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodesPerShard)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			r.points = append(r.points, ringPoint{
				hash:  ringHash(fmt.Sprintf("shard-%d#%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on shard index so the ring order is deterministic
		// even in the astronomically unlikely event of a hash collision.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// Lookup returns the shard index owning a tenant ID: the first ring
// point at or clockwise of the tenant's hash.
func (r *Ring) Lookup(tenantID string) int {
	h := ringHash(tenantID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].shard
}

// ringHash is FNV-1a with a splitmix64 finalizer: fast,
// dependency-free, and stable across processes and architectures
// (placement must not depend on a per-process hash seed). The
// finalizer matters: raw FNV over near-identical strings ("shard-0#1",
// "shard-0#2", ...) leaves low-bit structure that visibly skews arc
// lengths; the mix spreads it.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //lint:ignore errcheck hash.Hash.Write never returns an error
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
