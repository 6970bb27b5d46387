package chash

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("host%d.example.com", i)
	}
	return out
}

func ringWith(members ...string) *Ring {
	r := NewRing(64)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func TestRingAssignsAllKeysToMembers(t *testing.T) {
	r := ringWith("a", "b", "c")
	members := map[string]bool{"a": true, "b": true, "c": true}
	for _, k := range keys(1000) {
		m := r.Assign(k)
		if !members[m] {
			t.Fatalf("key %q assigned to unknown member %q", k, m)
		}
	}
}

func TestRingEmptyReturnsEmptyString(t *testing.T) {
	r := NewRing(8)
	if got := r.Assign("x"); got != "" {
		t.Fatalf("empty ring assigned %q", got)
	}
}

func TestRingDeterministic(t *testing.T) {
	a := ringWith("a", "b", "c")
	b := ringWith("c", "a", "b") // insertion order must not matter
	for _, k := range keys(500) {
		if a.Assign(k) != b.Assign(k) {
			t.Fatalf("assignment depends on insertion order for key %q", k)
		}
	}
}

func TestRingAddIdempotent(t *testing.T) {
	r := ringWith("a", "b")
	before := make(map[string]string)
	for _, k := range keys(200) {
		before[k] = r.Assign(k)
	}
	r.Add("a")
	for k, v := range before {
		if got := r.Assign(k); got != v {
			t.Fatalf("re-adding member changed assignment of %q: %q -> %q", k, v, got)
		}
	}
	if len(r.members) != 2 {
		t.Fatalf("size = %d after duplicate add, want 2", len(r.members))
	}
}

func TestRingRemoveUnknownNoop(t *testing.T) {
	r := ringWith("a", "b")
	r.Remove("zzz")
	if len(r.members) != 2 {
		t.Fatalf("size = %d after removing unknown member, want 2", len(r.members))
	}
}

func TestRingChurnIsBounded(t *testing.T) {
	// Core consistent-hashing property (paper §3, UbiCrawler): adding one
	// member to n should move about 1/(n+1) of keys, not most of them.
	ks := keys(20000)
	before := ringWith("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9")
	after := ringWith("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9")
	after.Add("a10")
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
	ms := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"}
	before := NewModAssigner(ms)
	after := NewModAssigner(append(ms, "a10"))
	frac := float64(Moved(before, after, ks)) / float64(len(ks))
	if frac < 0.5 {
		t.Fatalf("mod hashing moved only %.1f%% of keys, expected most", frac*100)
	}
}

func TestRingOnlyDepartedKeysMove(t *testing.T) {
	// Removing a member must relocate exactly the keys it owned.
	ks := keys(5000)
	before := ringWith("a", "b", "c", "d")
	ownedByD := map[string]bool{}
	for _, k := range ks {
		if before.Assign(k) == "d" {
			ownedByD[k] = true
		}
	}
	after := ringWith("a", "b", "c", "d")
	after.Remove("d")
	for _, k := range ks {
		moved := before.Assign(k) != after.Assign(k)
		if moved != ownedByD[k] {
			t.Fatalf("key %q: moved=%v but ownedByD=%v", k, moved, ownedByD[k])
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(512)
	n := 8
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("agent%d", i))
	}
	counts := map[string]int{}
	ks := keys(40000)
	for _, k := range ks {
		counts[r.Assign(k)]++
	}
	want := float64(len(ks)) / float64(n)
	for m, c := range counts {
		if float64(c) < 0.6*want || float64(c) > 1.5*want {
			t.Fatalf("member %s owns %d keys, want within [0.6, 1.5]× of %v", m, c, want)
		}
	}
}

func TestModAssignerEmpty(t *testing.T) {
	m := NewModAssigner(nil)
	if got := m.Assign("x"); got != "" {
		t.Fatalf("empty ModAssigner assigned %q", got)
	}
}
