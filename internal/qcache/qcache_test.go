package qcache

import (
	"fmt"
	"testing"

	"cottage/internal/search"
	"cottage/internal/xrand"
)

func TestKeyCanonical(t *testing.T) {
	if Key([]string{"red", "car"}) != Key([]string{"car", "red"}) {
		t.Error("key should be order-insensitive")
	}
	if Key([]string{"a"}) == Key([]string{"b"}) {
		t.Error("distinct queries must differ")
	}
	if Key([]string{"ab", "c"}) == Key([]string{"a", "bc"}) {
		t.Error("separator must prevent concatenation collisions")
	}
	if Key([]string{"a", "a"}) == Key([]string{"a"}) {
		t.Error("a repeated term is a different query: the key must keep it")
	}
}

func TestLRUBasics(t *testing.T) {
	c := NewLRU[[]search.Hit](2)
	if _, ok := c.Get("x"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", []search.Hit{{Doc: 1}})
	c.Put("b", []search.Hit{{Doc: 2}})
	if hits, ok := c.Get("a"); !ok || hits[0].Doc != 1 {
		t.Fatal("miss on cached entry")
	}
	// "b" is now the LRU; inserting "c" evicts it.
	if !c.Put("c", []search.Hit{{Doc: 3}}) {
		t.Fatal("Put into a full cache reported no eviction")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU[[]search.Hit](2)
	c.Put("a", []search.Hit{{Doc: 1}})
	if c.Put("a", []search.Hit{{Doc: 9}}) {
		t.Fatal("updating an entry reported an eviction")
	}
	if c.Len() != 1 {
		t.Fatal("update should not grow the cache")
	}
	if hits, _ := c.Get("a"); hits[0].Doc != 9 {
		t.Fatal("update lost")
	}
}

func TestHitRate(t *testing.T) {
	c := NewLRU[[]search.Hit](4)
	c.Put("a", nil)
	c.Get("a")
	c.Get("a")
	c.Get("zz")
	if hr := c.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", hr)
	}
	if c.hits != 2 || c.misses != 1 {
		t.Errorf("stats = %d/%d", c.hits, c.misses)
	}
	c.Reset()
	if c.Len() != 0 || c.HitRate() != 0 {
		t.Error("reset incomplete")
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := NewLRU[[]search.Hit](16)
	rng := xrand.New(1)
	for i := 0; i < 5000; i++ {
		c.Put(fmt.Sprintf("k%d", rng.Intn(200)), nil)
		if c.Len() > 16 {
			t.Fatalf("capacity exceeded: %d", c.Len())
		}
	}
}

func TestNewLRUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero capacity")
		}
	}()
	NewLRU[int](0)
}

func BenchmarkLRUGetPut(b *testing.B) {
	c := NewLRU[[]search.Hit](1024)
	rng := xrand.New(1)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("query-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[rng.Intn(len(keys))]
		if _, ok := c.Get(k); !ok {
			c.Put(k, nil)
		}
	}
}
