package experiments

import (
	"fmt"
	"math"
	"testing"

	"dwr/internal/chash"
)

func peerNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("peer-%04d", i)
	}
	return out
}

// ownerOf returns the index of the peer owning key's arc.
func ownerOf(o *overlay, key string) int { return o.successorIdx(chash.Hash64(key)) }

func TestRouteReachesOwner(t *testing.T) {
	o := newOverlay(peerNames(100))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("term%d", i)
		owner := ownerOf(o, key)
		got, hops := o.route(i%len(o.peers), key)
		if got != owner {
			t.Fatalf("key %q routed to peer %d, owner is %d", key, got, owner)
		}
		if hops < 0 || hops > len(o.peers) {
			t.Fatalf("key %q took %d hops", key, hops)
		}
	}
}

func TestRouteFromOwnerIsZeroHops(t *testing.T) {
	o := newOverlay(peerNames(50))
	key := "somekey"
	owner := ownerOf(o, key)
	if _, hops := o.route(owner, key); hops != 0 {
		t.Fatalf("routing from the owner took %d hops", hops)
	}
}

func TestRouteLogarithmicHops(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		o := newOverlay(peerNames(n))
		total := 0
		const lookups = 500
		for i := 0; i < lookups; i++ {
			_, hops := o.route(i%n, fmt.Sprintf("key%d", i))
			total += hops
		}
		mean := float64(total) / lookups
		limit := 2 * math.Log2(float64(n))
		if mean > limit {
			t.Fatalf("n=%d: mean hops %.1f exceeds 2·log2(n)=%.1f", n, mean, limit)
		}
		if mean < 1 {
			t.Fatalf("n=%d: mean hops %.2f implausibly low", n, mean)
		}
	}
}

func TestCapacityModel(t *testing.T) {
	m := capacityModel{serveQPS: 100, demandQPS: 5}
	// Client/server: 16 servers support 320 clients, independent of n.
	if got := m.clientServerSupportable(16); got != 320 {
		t.Fatalf("client/server supportable = %v, want 320", got)
	}
	// P2P: utilization is constant in n and < 1 without free-riding.
	u100 := m.p2pUtilization(100, 0)
	u10000 := m.p2pUtilization(10000, 0)
	if math.Abs(u100-u10000) > 1e-12 {
		t.Fatalf("P2P utilization varies with n: %v vs %v", u100, u10000)
	}
	if u100 >= 1 {
		t.Fatalf("P2P utilization %v ≥ 1 without free-riding", u100)
	}
	// Free-riding degrades capacity; past 1 - demand/serve it diverges.
	if m.p2pUtilization(100, 0.5) <= u100 {
		t.Fatal("free-riding did not raise utilization")
	}
	if u := m.p2pUtilization(100, 0.99); u < 1 {
		t.Fatalf("99%% free-riding still sustainable (%v); model broken", u)
	}
	if u := m.p2pUtilization(100, 1); u != -1 {
		t.Fatalf("total free-riding should report no capacity, got %v", u)
	}
}

func TestEmptyOverlay(t *testing.T) {
	o := newOverlay(nil)
	if owner, hops := o.route(0, "x"); owner != -1 || hops != 0 {
		t.Fatal("empty overlay routed")
	}
}
