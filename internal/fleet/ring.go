// Package fleet shards model fingerprints across a set of numaiod
// replicas — the datacenter-scale analog of the paper's bandwidth-aware
// placement. One daemon caches models for one fingerprint set; a fleet of
// them behind the numaiogw gateway serves many. The pieces:
//
//   - Ring: a consistent-hash ring with virtual nodes. Ownership is a pure
//     function of the member set, so every gateway (and every restart)
//     agrees on placement, and membership changes move only the keys the
//     departed member owned (~1/N of the keyspace).
//   - Membership: the static replica set from a JSON config, actively
//     health-checked with per-replica circuit breakers (internal/resilience)
//     so routing skips dead replicas between probes.
//   - Gateway: an HTTP handler terminating the numaiod v1 API. It routes
//     each request to the owning replica by fingerprint, proxies to ring
//     successors when the owner is down, replicates hot models to peers for
//     read availability, and fans /v1/fleet/place out to every healthy
//     replica to find the best (host, node) in the fleet by predicted
//     bandwidth.
//
// See docs/FLEET.md for the full design and degradation semantics.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member when a config leaves
// it unset: enough points that per-member load imbalance stays within a
// few percent and key movement on a leave stays near 1/N.
const DefaultVNodes = 128

// ringPoint is one virtual node: the hash position and the member that
// owns the arc ending there.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring over named members. Construction is
// deterministic: the same member set (in any order) and vnode count yield
// the same ring, so ownership survives process restarts and is identical
// on every gateway replica.
type Ring struct {
	vnodes  int
	members []string // sorted, unique
	points  []ringPoint
}

// ringHash is FNV-1a 64 pushed through a murmur-style finalizer — stable
// across processes and platforms (unlike Go's seeded map hash), with the
// avalanche FNV alone lacks: sequential vnode labels ("r3#17", "r3#18")
// must land uniformly around the ring or per-member load skews badly.
// Same idiom as the avalanched draw hash in internal/faults.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewRing builds a ring over members with the given virtual-node count per
// member (vnodes < 1 means DefaultVNodes). Member names must be non-empty
// and unique.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one member")
	}
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("fleet: empty member name")
		}
		if i > 0 && sorted[i-1] == m {
			return nil, fmt.Errorf("fleet: duplicate member %q", m)
		}
	}
	r := &Ring{
		vnodes:  vnodes,
		members: sorted,
		points:  make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for _, m := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   ringHash(m + "#" + strconv.Itoa(i)),
				member: m,
			})
		}
	}
	// Ties broken by member name so ring order never depends on input
	// order even in the (astronomically unlikely) event of a hash collision.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the member names in sorted order.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Points returns the virtual-node count on the ring.
func (r *Ring) Points() int { return len(r.points) }

// search returns the index of the first ring point at or clockwise of
// key's hash (wrapping past the top).
func (r *Ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owners returns up to n distinct members for key in ring-walk order: the
// owner first, then the successors a replication factor of n would use.
// n > Len() is clamped, so Owners(key, Len()) is every member ordered by
// preference for that key — the gateway's failover order.
func (r *Ring) Owners(key string, n int) []string {
	if n < 1 {
		n = 1
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
