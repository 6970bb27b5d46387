package chash

import (
	"fmt"
	"hash/fnv"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("host%d.example.com", i)
	}
	return out
}

func ringWith(members ...int) *Ring {
	r := NewRing()
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func TestRingAssignsAllKeysToMembers(t *testing.T) {
	r := ringWith(0, 1, 2)
	for _, k := range keys(1000) {
		m := r.Owner(k)
		if m < 0 || m > 2 {
			t.Fatalf("key %q assigned to unknown member %d", k, m)
		}
	}
}

func TestRingEmptyReturnsMinusOne(t *testing.T) {
	r := ringWith(0)
	r.Remove(0)
	if got := r.Owner("x"); got != -1 {
		t.Fatalf("empty ring assigned %d", got)
	}
}

func TestRingDeterministic(t *testing.T) {
	a := ringWith(0, 1, 2)
	b := ringWith(2, 0, 1) // insertion order must not matter
	for _, k := range keys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("assignment depends on insertion order for key %q", k)
		}
	}
}

func TestRingAddIdempotent(t *testing.T) {
	r := ringWith(0, 1)
	before := make(map[string]int)
	for _, k := range keys(200) {
		before[k] = r.Owner(k)
	}
	r.Add(0)
	for k, v := range before {
		if got := r.Owner(k); got != v {
			t.Fatalf("re-adding member changed assignment of %q: %d -> %d", k, v, got)
		}
	}
	if len(r.members) != 2 {
		t.Fatalf("size = %d after duplicate add, want 2", len(r.members))
	}
}

func TestRingRemoveUnknownNoop(t *testing.T) {
	r := ringWith(0, 1)
	r.Remove(99)
	if len(r.members) != 2 {
		t.Fatalf("size = %d after removing unknown member, want 2", len(r.members))
	}
}

func TestRingChurnIsBounded(t *testing.T) {
	// Core consistent-hashing property (paper §3, UbiCrawler): adding one
	// member to n should move about 1/(n+1) of keys, not most of them.
	ks := keys(20000)
	before := ringWith(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	after := ringWith(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	after.Add(10)
	frac := float64(Moved(before, after, ks)) / float64(len(ks))
	if frac > 0.20 {
		t.Fatalf("consistent hashing moved %.1f%% of keys on join, want ≈9%%", frac*100)
	}
	if frac < 0.02 {
		t.Fatalf("consistent hashing moved only %.1f%% of keys; new member got almost nothing", frac*100)
	}
}

func TestModChurnIsLarge(t *testing.T) {
	ks := keys(20000)
	before, after := &Mod{}, &Mod{}
	for id := 0; id < 10; id++ {
		before.Add(id)
		after.Add(id)
	}
	after.Add(10)
	frac := float64(Moved(before, after, ks)) / float64(len(ks))
	if frac < 0.5 {
		t.Fatalf("mod hashing moved only %.1f%% of keys, expected most", frac*100)
	}
}

func TestRingOnlyDepartedKeysMove(t *testing.T) {
	// Removing a member must relocate exactly the keys it owned.
	ks := keys(5000)
	before := ringWith(0, 1, 2, 3)
	ownedByD := map[string]bool{}
	for _, k := range ks {
		if before.Owner(k) == 3 {
			ownedByD[k] = true
		}
	}
	after := ringWith(0, 1, 2, 3)
	after.Remove(3)
	for _, k := range ks {
		moved := before.Owner(k) != after.Owner(k)
		if moved != ownedByD[k] {
			t.Fatalf("key %q: moved=%v but ownedByD=%v", k, moved, ownedByD[k])
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := ringWith(0, 1, 2, 3, 4, 5, 6, 7)
	n := 8
	counts := map[int]int{}
	ks := keys(40000)
	for _, k := range ks {
		counts[r.Owner(k)]++
	}
	want := float64(len(ks)) / float64(n)
	for m, c := range counts {
		if float64(c) < 0.6*want || float64(c) > 1.5*want {
			t.Fatalf("member %d owns %d keys, want within [0.6, 1.5]× of %v", m, c, want)
		}
	}
}

func TestModEmptyReturnsMinusOne(t *testing.T) {
	m := &Mod{}
	if got := m.Owner("x"); got != -1 {
		t.Fatalf("empty Mod assigned %d", got)
	}
	m.Add(4)
	m.Remove(4)
	if got := m.Owner("x"); got != -1 {
		t.Fatalf("emptied Mod assigned %d", got)
	}
}

func TestModBucketsFollowJoinOrder(t *testing.T) {
	// Removing a member shifts the later members down one bucket, so a
	// pool that lost its last member owns keys as a pool that never had it.
	shrunk, small := &Mod{}, &Mod{}
	for id := 0; id < 5; id++ {
		shrunk.Add(id)
		if id < 4 {
			small.Add(id)
		}
	}
	shrunk.Add(2) // already present: no-op
	shrunk.Remove(4)
	if n := Moved(shrunk, small, keys(2000)); n != 0 {
		t.Fatalf("%d keys differ between a shrunk pool and its equal", n)
	}
}

func TestHash64IsFNV1aThenSplitmix(t *testing.T) {
	for _, s := range []string{"", "a", "agent3#17", "h0042.example", "peer-0001"} {
		f := fnv.New64a()
		f.Write([]byte(s))
		x := f.Sum64()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if got := Hash64(s); got != x {
			t.Fatalf("Hash64(%q) = %#x, want %#x", s, got, x)
		}
	}
}
