package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"

	"dwr/internal/metrics"
)

// Claim19P2PArchitecture (C19) exercises Section 5's architecture
// classification: in a client/server system the serving capacity is
// fixed, so the supportable client population is bounded; in a
// peer-to-peer system every new client adds capacity, so utilization is
// flat in the population size — until free-riding erodes the serving
// fraction. Structured-overlay routing costs O(log n) hops.
func Claim19P2PArchitecture() *Result {
	r := newResult("C19")
	m := capacityModel{serveQPS: 100, demandQPS: 5}

	// Capacity scaling.
	t := metrics.NewTable("offered load / capacity as the population grows (16 servers vs P2P)",
		"clients", "client/server utilization", "P2P utilization (no free-riding)")
	csCap := m.clientServerSupportable(16) // constant capacity
	var csAt1000, p2pAt1000 float64
	for _, n := range []int{100, 320, 1000, 10000} {
		cs := float64(n) / csCap
		pp := m.p2pUtilization(n, 0)
		t.AddRow(n, cs, pp)
		if n == 1000 {
			csAt1000, p2pAt1000 = cs, pp
		}
	}
	r.Tables = append(r.Tables, t)

	// Free-riding sweep.
	fr := metrics.NewTable("P2P utilization vs free-riding fraction (1000 peers)",
		"free-riding", "utilization")
	var frBreak float64
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		u := m.p2pUtilization(1000, f)
		fr.AddRow(f, u)
		if u >= 1 && frBreak == 0 {
			frBreak = f
		}
	}
	r.Tables = append(r.Tables, fr)

	// Overlay routing: mean hops vs size.
	hops := metrics.NewTable("structured-overlay lookup cost", "peers", "mean hops", "log2(n)")
	var hops1024 float64
	for _, n := range []int{64, 256, 1024} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("peer-%05d", i)
		}
		o := newOverlay(names)
		total := 0
		const lookups = 400
		for i := 0; i < lookups; i++ {
			_, h := o.route(i%n, fmt.Sprintf("key%d", i))
			total += h
		}
		mean := float64(total) / lookups
		hops.AddRow(n, mean, log2(n))
		if n == 1024 {
			hops1024 = mean
		}
	}
	r.Tables = append(r.Tables, hops)

	r.Values = map[string]float64{
		"cs_util_1000":  csAt1000,
		"p2p_util_1000": p2pAt1000,
		"fr_break":      frBreak,
		"hops_1024":     hops1024,
	}
	r.Notes = append(r.Notes,
		"paper: 'in peer-to-peer systems ... the total amount of resources available for processing queries increases with the number of clients, assuming that free-riding is not prevalent'")
	return r
}

func log2(n int) float64 {
	l := 0.0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}

// The overlay below is the peer-to-peer architecture Section 5
// classifies against client/server systems: a structured overlay (in the
// Chord style underlying the pSearch system the paper cites) in which
// every participant is both client and server. Keys (terms) map to the
// peer owning their arc of the identifier ring; lookups route greedily
// through finger tables in O(log n) hops.

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

// peer is one overlay participant.
type peer struct {
	id uint64
	// fingers[i] is the index (into the overlay's sorted peer slice) of
	// successor(id + 2^i).
	fingers [fingerBits]int
}

// overlay is a structured P2P overlay with stabilized finger tables.
type overlay struct {
	peers []*peer // sorted by id
}

// newOverlay builds an overlay over the given peer names.
func newOverlay(names []string) *overlay {
	o := &overlay{}
	for _, n := range names {
		o.peers = append(o.peers, &peer{id: hashID(n)})
	}
	sort.Slice(o.peers, func(i, j int) bool { return o.peers[i].id < o.peers[j].id })
	o.rebuildFingers()
	return o
}

// successorIdx returns the index of the first peer with id ≥ id
// (wrapping).
func (o *overlay) successorIdx(id uint64) int {
	i := sort.Search(len(o.peers), func(i int) bool { return o.peers[i].id >= id })
	if i == len(o.peers) {
		return 0
	}
	return i
}

// rebuildFingers computes every peer's finger table.
func (o *overlay) rebuildFingers() {
	for _, p := range o.peers {
		for b := 0; b < fingerBits; b++ {
			target := p.id + (uint64(1) << uint(b)) // wraps mod 2^64 naturally
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

// route performs a lookup for key starting at peer index start,
// returning the owner index and the number of overlay hops taken.
// Routing is the classic greedy rule: jump to the closest preceding
// finger of the key until the successor arc is reached.
func (o *overlay) route(start int, key string) (owner, hops int) {
	if len(o.peers) == 0 {
		return -1, 0
	}
	target := hashID(key)
	ownerIdx := o.successorIdx(target)
	cur := start
	for cur != ownerIdx {
		p := o.peers[cur]
		succ := (cur + 1) % len(o.peers)
		if inArc(target, p.id, o.peers[succ].id) {
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
			if inArc(o.peers[f].id, p.id, target) {
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
			panic(fmt.Sprintf("overlay: routing for %q did not converge", key))
		}
	}
	return cur, hops
}

// capacityModel captures the paper's client/server vs peer-to-peer
// resource argument: servers (or contributing peers) each sustain
// serveQPS; every client (or peer) offers demandQPS of queries.
type capacityModel struct {
	serveQPS  float64 // capacity one server/contributing peer adds
	demandQPS float64 // load one client/peer generates
}

// clientServerSupportable returns the maximum number of clients a fixed
// pool of servers sustains: capacity is constant in the client count.
func (m capacityModel) clientServerSupportable(servers int) float64 {
	if m.demandQPS <= 0 {
		return 0
	}
	return float64(servers) * m.serveQPS / m.demandQPS
}

// p2pUtilization returns offered-load / capacity for n peers of which
// freeRiding fraction contribute no serving capacity but still issue
// queries. Values < 1 mean the system keeps up at any scale; the paper's
// caveat "assuming that free-riding is not prevalent" is the divergence
// of this ratio as freeRiding → 1.
func (m capacityModel) p2pUtilization(n int, freeRiding float64) float64 {
	serving := float64(n) * (1 - freeRiding) * m.serveQPS
	if serving <= 0 {
		return -1 // no capacity at all
	}
	return float64(n) * m.demandQPS / serving
}
