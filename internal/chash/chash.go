// Package chash maps a key to its owner: the host → crawling-agent
// assignment of Section 3 of the paper. Ring is the consistent-hashing
// ring with virtual nodes UbiCrawler uses to let agents join and leave
// without re-hashing every server name; Mod is the plain modulo-hash
// baseline whose churn the ring is compared against (experiment C2).
// The crawler runs these same assigners, and Hash64 is the one key hash
// the other key → owner maps of the repo share.
package chash

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Hash64 hashes a string to a uint64: FNV-1a, whose output alone mixes
// poorly on short, similar strings (agent names differing in one digit
// land in clustered arcs), passed through the splitmix64 finalizer for
// full avalanche.
func Hash64(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211 // FNV prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Assigner maps keys to owners, identified by int IDs, and tracks a
// changing member set. Owner returns -1 when there are no members;
// adding a present member or removing an absent one is a no-op.
type Assigner interface {
	Owner(key string) int
	Add(id int)
	Remove(id int)
}

// Mod is the baseline "trivial, but reasonable assignment policy" from
// Section 3: hash the server name and take it modulo the number of
// members. It is cheap and balanced but relocates almost every key when
// the member set changes. A member's bucket is its position in join
// order. The zero value has no members.
type Mod struct {
	ids []int
}

// Owner returns the member for key, or -1 if there are no members.
func (m *Mod) Owner(key string) int {
	if len(m.ids) == 0 {
		return -1
	}
	return m.ids[Hash64(key)%uint64(len(m.ids))]
}

// Add appends a member to the bucket order.
func (m *Mod) Add(id int) {
	if !slices.Contains(m.ids, id) {
		m.ids = append(m.ids, id)
	}
}

// Remove deletes a member; later members shift down one bucket.
func (m *Mod) Remove(id int) {
	if i := slices.Index(m.ids, id); i >= 0 {
		m.ids = slices.Delete(m.ids, i, i+1)
	}
}

// ringPoints is the number of virtual points per ring member;
// UbiCrawler-style deployments use on the order of 100.
const ringPoints = 128

// Ring is a consistent-hashing ring. Each member occupies ringPoints
// virtual points; a key is assigned to the member owning the first
// point clockwise from the key's hash. Adding or removing a member
// relocates only the keys in the affected arcs — about 1/n of them —
// instead of nearly all keys as modulo hashing does.
//
// Ring is safe for concurrent use.
type Ring struct {
	mu      sync.RWMutex
	points  []uint64       // sorted virtual point positions
	owner   map[uint64]int // point position -> member
	members map[int]bool
}

// NewRing creates an empty ring.
func NewRing() *Ring {
	return &Ring{owner: make(map[uint64]int), members: make(map[int]bool)}
}

// Add inserts a member into the ring. Member id's points hash the
// labels "agent<id>#<j>".
func (r *Ring) Add(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[id] {
		return
	}
	r.members[id] = true
	for j := 0; j < ringPoints; j++ {
		p := Hash64(fmt.Sprintf("agent%d#%d", id, j))
		// On the (astronomically unlikely) event of a point collision,
		// probe linearly for a free position to keep ownership unambiguous.
		for {
			if _, taken := r.owner[p]; !taken {
				break
			}
			p++
		}
		r.owner[p] = id
		r.points = append(r.points, p)
	}
	slices.Sort(r.points)
}

// Remove deletes a member and its virtual points.
func (r *Ring) Remove(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if r.owner[p] == id {
			delete(r.owner, p)
			continue
		}
		kept = append(kept, p)
	}
	r.points = kept
}

// Owner returns the member responsible for key, or -1 if the ring is
// empty.
func (r *Ring) Owner(key string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return -1
	}
	h := Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.owner[r.points[i]]
}

// Moved counts how many of the given keys change owner between two
// assigners. It is the churn metric of experiment C2.
func Moved(before, after Assigner, keys []string) int {
	moved := 0
	for _, k := range keys {
		if before.Owner(k) != after.Owner(k) {
			moved++
		}
	}
	return moved
}
