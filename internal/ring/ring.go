// Package ring places link paths on a ring of DLFM servers with consistent
// hashing. The ring is the routing truth for the scale-out namespace: every
// layer that needs "which server owns this path" asks a Ring, and because the
// hash is a fixed function (FNV-1a 64, not a per-process seeded hash) the
// answer is identical across processes and across restarts — a requirement
// for routing DATALINK URLs minted before the current process started.
//
// Each member contributes vnodes points to the ring ("member#0",
// "member#1", ...); a key is owned by the member of the first point at or
// clockwise after hash(key). Virtual nodes keep the per-member share near
// K/n and, more importantly, make membership changes minimal: adding or
// removing one member of n moves only the keys that fall into the new
// member's arcs — about K/n of them — and no key moves between two surviving
// members. Rings are immutable; With/Without return new rings, so a router
// can swap atomically under its own lock.
package ring

import "sort"

// DefaultVirtualNodes is the vnode count New uses when passed zero.
// 128 points per member keeps the max/mean member share under ~1.3 for small
// clusters, which E21 reports as shard skew.
const DefaultVirtualNodes = 128

// point is one virtual node: a position on the 64-bit ring and the member
// that owns the arc ending there.
type point struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring. The zero value is an empty ring
// that owns nothing; use New.
type Ring struct {
	vnodes  int
	members []string // sorted, unique
	points  []point  // sorted by (hash, member)
}

// fnv64a is FNV-1a 64 with a murmur-style finalizer. Deliberately hand-rolled
// rather than hash/maphash: placement must be a pure function of the bytes so
// that two processes (or one process before and after a restart) route
// identically. Raw FNV-1a clusters short sequential labels ("fs1#0".."fs1#127")
// into narrow arcs of the 64-bit ring — measured up to 65% of keys landing on
// one member of four — so the finalizer's bit mixing is load-bearing, not
// cosmetic.
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	// fmix64 (MurmurHash3 finalizer): full avalanche over all 64 bits.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vnodeLabel is the hashed label of member's i-th virtual node.
func vnodeLabel(member string, i int) string {
	// member + "#" + decimal(i); '#' keeps "fs1"+"1" distinct from "fs11"+"".
	buf := make([]byte, 0, len(member)+8)
	buf = append(buf, member...)
	buf = append(buf, '#')
	if i == 0 {
		buf = append(buf, '0')
	} else {
		var digits [20]byte
		n := len(digits)
		for i > 0 {
			n--
			digits[n] = byte('0' + i%10)
			i /= 10
		}
		buf = append(buf, digits[n:]...)
	}
	return string(buf)
}

// New builds a ring of the given members with vnodes virtual nodes each
// (DefaultVirtualNodes if vnodes <= 0). Duplicate member names collapse.
func New(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: fnv64a(vnodeLabel(m, i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by member name so placement
		// stays deterministic regardless of insertion order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Lookup returns the member that owns key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := fnv64a(key)
	// First point with hash >= h, wrapping to points[0].
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// SuccessorsFor returns the first n distinct members at or clockwise after
// hash(key): the key's owner first (identical to Lookup), then the members
// whose arcs follow it. The list is the key's replica set under successor
// replication, and its ordering is what makes failover free of data movement:
// Without(owner) reassigns the key to exactly SuccessorsFor(key, n)[1],
// because removing owner's points leaves the old second successor as the
// first point clockwise of the key. Fewer than n members yields them all.
func (r *Ring) SuccessorsFor(key string, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := fnv64a(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

// Members returns the sorted member list. The caller must not mutate it.
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return r.members
}

// Has reports whether member is on the ring.
func (r *Ring) Has(member string) bool {
	if r == nil {
		return false
	}
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// With returns a new ring with member added (or r itself if already present).
func (r *Ring) With(member string) *Ring {
	if r.Has(member) {
		return r
	}
	vn := DefaultVirtualNodes
	if r != nil && r.vnodes > 0 {
		vn = r.vnodes
	}
	return New(vn, append(append([]string{}, r.Members()...), member)...)
}

// Without returns a new ring with member removed (or r itself if absent).
func (r *Ring) Without(member string) *Ring {
	if !r.Has(member) {
		return r
	}
	keep := make([]string, 0, len(r.members)-1)
	for _, m := range r.members {
		if m != member {
			keep = append(keep, m)
		}
	}
	return New(r.vnodes, keep...)
}

// VirtualNodes returns the per-member vnode count the ring was built with.
func (r *Ring) VirtualNodes() int {
	if r == nil {
		return 0
	}
	return r.vnodes
}
