// Package chash implements the URL/host assignment functions discussed in
// Section 3 of the paper: a consistent-hashing ring with virtual nodes (as
// used by UbiCrawler to let crawling agents join and leave without
// re-hashing every server name) and a plain modulo-hash baseline whose
// churn behaviour the ring is compared against.
package chash

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// hash64 hashes a string to a uint64 ring position. FNV-1a alone mixes
// poorly on short, similar strings (agent names differing in one digit
// land in clustered arcs), so its output is passed through a
// splitmix64-style finalizer for full avalanche.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler with
// good avalanche behaviour.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ring is a consistent-hashing ring. Members (crawling agents or index
// servers) occupy several virtual points each; a key is assigned to the
// member owning the first point clockwise from the key's hash. Adding or
// removing a member relocates only the keys in the affected arcs —
// about 1/n of them — instead of nearly all keys as modulo hashing does.
//
// Ring is safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []uint64          // sorted virtual point positions
	owner    map[uint64]string // point position -> member
	members  map[string]bool
}

// NewRing creates a ring with the given number of virtual points per
// member. UbiCrawler-style deployments use on the order of 100 replicas;
// the default used when replicas <= 0 is 64.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	return &Ring{
		replicas: replicas,
		owner:    make(map[uint64]string),
		members:  make(map[string]bool),
	}
}

// Add inserts a member into the ring. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.replicas; i++ {
		p := hash64(fmt.Sprintf("%s#%d", member, i))
		// On the (astronomically unlikely) event of a point collision,
		// probe linearly for a free position to keep ownership unambiguous.
		for {
			if _, taken := r.owner[p]; !taken {
				break
			}
			p++
		}
		r.owner[p] = member
		r.points = append(r.points, p)
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i] < r.points[j] })
}

// Remove deletes a member and its virtual points. Removing an unknown
// member is a no-op.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if r.owner[p] == member {
			delete(r.owner, p)
			continue
		}
		kept = append(kept, p)
	}
	r.points = kept
}

// Assign returns the member responsible for key, or "" if the ring is
// empty.
func (r *Ring) Assign(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.owner[r.points[i]]
}

// ModAssigner is the baseline "trivial, but reasonable assignment policy"
// from Section 3: hash the server name and take it modulo the number of
// agents. It is cheap and balanced but relocates almost every key when
// the member set changes.
type ModAssigner struct {
	members []string
}

// NewModAssigner creates a modulo assigner over the given member list.
// The order of members matters: position in the slice is the bucket index.
func NewModAssigner(members []string) *ModAssigner {
	return &ModAssigner{members: append([]string(nil), members...)}
}

// Assign returns the member for key, or "" if there are no members.
func (m *ModAssigner) Assign(key string) string {
	if len(m.members) == 0 {
		return ""
	}
	return m.members[hash64(key)%uint64(len(m.members))]
}

// Assigner is the interface shared by Ring and ModAssigner, letting the
// crawler switch assignment policies.
type Assigner interface {
	Assign(key string) string
}

// Moved counts how many of the given keys change owner between two
// assigners. It is the churn metric used by experiment C2.
func Moved(before, after Assigner, keys []string) int {
	moved := 0
	for _, k := range keys {
		if before.Assign(k) != after.Assign(k) {
			moved++
		}
	}
	return moved
}
