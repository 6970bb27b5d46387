package cache

import "testing"

func TestLRUBasics(t *testing.T) {
	c := NewLRU[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("c", 3) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU[int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	c.Put("b", 2) // a second key fits: the double put took one slot
	if v, ok := c.Get("a"); !ok || v != 9 {
		t.Fatalf("updated entry = %v, %v", v, ok)
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted: the double put of a took two slots")
	}
}

func TestLRUCapacityOne(t *testing.T) {
	for _, capacity := range []int{1, 0, -3} { // below 1 clamps to 1
		c := NewLRU[string](capacity)
		c.Put("x", "1")
		c.Put("y", "2")
		if _, ok := c.Get("x"); ok {
			t.Fatalf("capacity %d: x survived", capacity)
		}
		if v, ok := c.Get("y"); !ok || v != "2" {
			t.Fatalf("capacity %d: y missing", capacity)
		}
	}
}
