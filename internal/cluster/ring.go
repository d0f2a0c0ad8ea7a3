// Package cluster is the multi-library distributed tier: a
// placement/router layer that shards the archive across N library
// instances, each a full serving stack of its own (staging tier,
// platter index, flush scheduler, repair manager). Placement is a
// deterministic consistent-hash ring — seeded, virtual-noded, stable
// across restarts — mapping tenant/key to a primary library; every
// write additionally places a cross-library redundancy copy on the
// ring successor, so losing an entire library (the failure domain
// TALICS³ and the online-failure-detection literature treat as first
// class) loses zero acknowledged writes. The rebuild path pulls the
// surviving copy from peer libraries through the ordinary serving API,
// and a rebalancer migrates exactly the affected key ranges when a
// library is added or drained.
package cluster

import (
	"fmt"
	"sort"
)

// hash64 is the ring's seeded string hash: FNV-1a folded with the
// seed, finished with a splitmix64 avalanche. It is a pure function of
// (seed, s) — no process state — which is what makes ring placement
// byte-identical across restarts.
func hash64(seed uint64, s string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	lib  string
}

// Ring is a consistent-hash ring with virtual nodes. A key belongs to
// the first virtual node clockwise from its hash; successors for
// redundancy placement are the next virtual nodes owned by *distinct*
// libraries. Point positions depend only on (seed, library name,
// vnode index), so membership changes move exactly the arcs adjacent
// to the touched library's virtual nodes and nothing else.
//
// Ring is not safe for concurrent use; the Cluster guards it.
type Ring struct {
	seed    uint64
	vnodes  int
	version uint64
	points  []point
	members map[string]struct{}
}

// DefaultVNodes is the per-library virtual-node count: enough that
// ownership imbalance across a handful of libraries stays within a
// small constant factor.
const DefaultVNodes = 96

// NewRing returns an empty ring. vnodes <= 0 takes DefaultVNodes.
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{seed: seed, vnodes: vnodes, members: make(map[string]struct{})}
}

// Add inserts a library's virtual nodes.
func (r *Ring) Add(lib string) error {
	if lib == "" {
		return fmt.Errorf("cluster: empty library name")
	}
	if _, ok := r.members[lib]; ok {
		return fmt.Errorf("cluster: library %q already on the ring", lib)
	}
	r.members[lib] = struct{}{}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: hash64(r.seed, fmt.Sprintf("%s#%d", lib, v)), lib: lib})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.version++
	return nil
}

// Remove deletes a library's virtual nodes.
func (r *Ring) Remove(lib string) error {
	if _, ok := r.members[lib]; !ok {
		return fmt.Errorf("cluster: library %q not on the ring", lib)
	}
	delete(r.members, lib)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.lib != lib {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.version++
	return nil
}

// Version counts membership changes; the silica_cluster_ring_version
// gauge exposes it so operators can see a rebalance propagate.
func (r *Ring) Version() uint64 { return r.version }

// Size reports the member count.
func (r *Ring) Size() int { return len(r.members) }

// Key builds the ring key for an object: tenant-qualified so one
// tenant's namespace spreads across libraries like everyone else's.
func Key(account, name string) string { return account + "/" + name }

// Owners returns up to n distinct libraries for key, primary first,
// then ring successors — the redundancy placement order. Fewer than n
// members returns them all.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(r.seed, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for range r.points {
		if i == len(r.points) {
			i = 0
		}
		lib := r.points[i].lib
		if _, dup := seen[lib]; !dup {
			seen[lib] = struct{}{}
			owners = append(owners, lib)
			if len(owners) == n {
				break
			}
		}
		i++
	}
	return owners
}

// OwnershipFractions reports the fraction of hash space each library
// owns as primary — the balance the property tests bound.
func (r *Ring) OwnershipFractions() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 as float
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // uint64 wraparound gives the arc length
		out[p.lib] += float64(arc) / whole
		prev = p.hash
	}
	return out
}
