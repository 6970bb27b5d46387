// Package p2p implements the peer-to-peer architecture Section 5
// classifies against client/server systems: a structured overlay (in the
// Chord style underlying the pSearch system the paper cites) in which
// every participant is both client and server. Keys (terms) map to the
// peer owning their arc of the identifier ring; lookups route greedily
// through finger tables in O(log n) hops.
//
// The paper's quantitative point — "the total amount of resources
// available for processing queries increases with the number of
// clients, assuming that free-riding is not prevalent" — is exercised by
// experiment C19 on top of this overlay.
package p2p

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// hashID maps a name or key to a ring position.
func hashID(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	v := h.Sum64()
	// splitmix-style finalizer for spread (FNV clusters on similar names).
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// fingerBits is the number of finger-table entries per peer (the ring is
// 64-bit).
const fingerBits = 64

// Peer is one overlay participant.
type Peer struct {
	ID uint64
	// fingers[i] is the index (into the overlay's sorted peer slice) of
	// successor(ID + 2^i).
	fingers [fingerBits]int
}

// Overlay is a structured P2P overlay with stabilized finger tables.
type Overlay struct {
	peers []*Peer // sorted by ID
}

// New builds an overlay over the given peer names.
func New(names []string) *Overlay {
	o := &Overlay{}
	for _, n := range names {
		o.peers = append(o.peers, &Peer{ID: hashID(n)})
	}
	sort.Slice(o.peers, func(i, j int) bool { return o.peers[i].ID < o.peers[j].ID })
	o.rebuildFingers()
	return o
}

// successorIdx returns the index of the first peer with ID ≥ id
// (wrapping).
func (o *Overlay) successorIdx(id uint64) int {
	i := sort.Search(len(o.peers), func(i int) bool { return o.peers[i].ID >= id })
	if i == len(o.peers) {
		return 0
	}
	return i
}

// rebuildFingers computes every peer's finger table.
func (o *Overlay) rebuildFingers() {
	for _, p := range o.peers {
		for b := 0; b < fingerBits; b++ {
			target := p.ID + (uint64(1) << uint(b)) // wraps mod 2^64 naturally
			p.fingers[b] = o.successorIdx(target)
		}
	}
}

// inArc reports whether x lies in the half-open ring arc (from, to].
func inArc(x, from, to uint64) bool {
	if from < to {
		return x > from && x <= to
	}
	return x > from || x <= to
}

// Route performs a lookup for key starting at peer index start,
// returning the owner index and the number of overlay hops taken.
// Routing is the classic greedy rule: jump to the closest preceding
// finger of the key until the successor arc is reached.
func (o *Overlay) Route(start int, key string) (owner, hops int) {
	if len(o.peers) == 0 {
		return -1, 0
	}
	target := hashID(key)
	ownerIdx := o.successorIdx(target)
	cur := start
	for cur != ownerIdx {
		p := o.peers[cur]
		succ := (cur + 1) % len(o.peers)
		if inArc(target, p.ID, o.peers[succ].ID) {
			// The successor owns the key.
			cur = succ
			hops++
			break
		}
		// Closest preceding finger: scan from the top.
		next := succ
		for b := fingerBits - 1; b >= 0; b-- {
			f := p.fingers[b]
			if f == cur {
				continue
			}
			if inArc(o.peers[f].ID, p.ID, target) {
				next = f
				break
			}
		}
		if next == cur {
			next = succ
		}
		cur = next
		hops++
		if hops > len(o.peers) {
			// Routing must terminate well before visiting every peer; a
			// full lap indicates a finger-table bug.
			panic(fmt.Sprintf("p2p: routing for %q did not converge", key))
		}
	}
	return cur, hops
}

// CapacityModel captures the paper's client/server vs peer-to-peer
// resource argument: servers (or contributing peers) each sustain
// ServeQPS; every client (or peer) offers DemandQPS of queries.
type CapacityModel struct {
	ServeQPS  float64 // capacity one server/contributing peer adds
	DemandQPS float64 // load one client/peer generates
}

// ClientServerSupportable returns the maximum number of clients a fixed
// pool of servers sustains: capacity is constant in the client count.
func (m CapacityModel) ClientServerSupportable(servers int) float64 {
	if m.DemandQPS <= 0 {
		return 0
	}
	return float64(servers) * m.ServeQPS / m.DemandQPS
}

// P2PUtilization returns offered-load / capacity for n peers of which
// freeRiding fraction contribute no serving capacity but still issue
// queries. Values < 1 mean the system keeps up at any scale; the paper's
// caveat "assuming that free-riding is not prevalent" is the divergence
// of this ratio as freeRiding → 1.
func (m CapacityModel) P2PUtilization(n int, freeRiding float64) float64 {
	serving := float64(n) * (1 - freeRiding) * m.ServeQPS
	if serving <= 0 {
		return -1 // no capacity at all
	}
	return float64(n) * m.DemandQPS / serving
}
