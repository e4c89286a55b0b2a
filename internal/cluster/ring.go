// Package cluster holds the membership primitives for running cloudd as a
// fault-tolerant fleet of peers (DESIGN.md §13): a consistent-hash ring
// that assigns segment-table ownership to nodes, and a heartbeat-driven
// failure detector that grades peers alive → suspect → dead and so decides
// which peers a node dials at all. The package is transport-agnostic —
// internal/cloud supplies the HTTP plumbing — and the detector takes
// explicit timestamps so tests drive its state machine deterministically.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Each member is hashed
// onto the ring at VirtualNodes points; a key's owner is the member whose
// point follows the key's hash clockwise. Virtual nodes smooth the load
// split (with ~64 per member the largest share stays within a few percent
// of fair), and consistency means adding or removing one member moves only
// the keys that member gains or loses — the rest of the fleet's
// segment-table caches stay warm.
//
// Ring is immutable after Build from the caller's perspective: membership
// in this system is fixed at boot (the -peers flag), and *liveness* is
// layered on top via Successors plus the failure detector, not by mutating
// the ring. Methods are safe for concurrent use because nothing mutates.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  []string    // sorted member IDs
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVirtualNodes is the virtual-node count used when Build is given 0.
const DefaultVirtualNodes = 64

// Build constructs a ring over the given member IDs. Duplicate or empty
// IDs are rejected; vnodes <= 0 uses DefaultVirtualNodes.
func Build(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{vnodes: vnodes}
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member ID")
		}
		if seen[m] {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", m)
		}
		seen[m] = true
		r.nodes = append(r.nodes, m)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", m, i)), node: m})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare with 64-bit FNV) break on member ID so
		// every node computes the identical ring regardless of input order.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Members returns the member IDs in sorted order (copy).
func (r *Ring) Members() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the member owning key: the first ring point at or after
// the key's hash, wrapping at the top.
func (r *Ring) Owner(key string) string {
	return r.points[r.search(key)].node
}

// Successors returns up to n distinct members in ring order starting at
// key's owner. This is the replica placement for key (owner first) and the
// takeover order when owners die: liveness-aware callers walk the list and
// pick the first member the failure detector still trusts.
func (r *Ring) Successors(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// search returns the index of the first point at or after key's hash.
func (r *Ring) search(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return i
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // hash.Hash.Write is documented never to fail
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-1a alone clusters badly on short,
// similar keys ("n1#0", "n1#1", ...) — without the avalanche pass a 4-node
// ring can hand one member <5% of the keyspace.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
