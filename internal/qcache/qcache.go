// Package qcache is the aggregator-side cache keyed by a query's
// canonical term set. Search traffic is heavily skewed (the trace
// generators reproduce the Zipfian term popularity of real logs), so a
// small LRU answers a large share of queries from memory. It has two
// users: the twin's merged top-K result cache (engine.Engine.Cache — the
// classic optimization of Baeza-Yates et al., reference [1] of the
// paper), which skips the ISNs altogether, and the live aggregator's
// prediction memo (internal/rpc, predmemo.go), which skips only the
// predict round and still searches.
package qcache

import (
	"container/list"
	"sort"
	"strings"
)

// Key canonicalizes a query's terms so "red car" and "car red" share a
// cache entry. It is order-insensitive only: a repeated term stays
// repeated, because what is cached may depend on the term count (the
// latency predictor's query-length feature does).
func Key(terms []string) string {
	if !sort.StringsAreSorted(terms) {
		terms = append([]string(nil), terms...)
		sort.Strings(terms)
	}
	return strings.Join(terms, "\x00")
}

// LRU is a fixed-capacity least-recently-used cache of V by key. It is
// not safe for concurrent use: the simulator is single-threaded, and the
// live aggregator's memo guards its LRU with a mutex.
type LRU[V any] struct {
	cap   int
	ll    *list.List
	items map[string]*list.Element

	hits, misses int
}

type entry[V any] struct {
	key string
	val V
}

// NewLRU creates a cache holding up to capacity entries.
func NewLRU[V any](capacity int) *LRU[V] {
	if capacity <= 0 {
		panic("qcache: capacity must be positive")
	}
	return &LRU[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value cached under key, if present, and refreshes its
// recency.
func (c *LRU[V]) Get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores v under key and reports whether that evicted the least
// recently used entry to make room. The value is stored as-is; callers
// must not mutate what it references afterwards.
func (c *LRU[V]) Put(key string, v V) (evicted bool) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = v
		c.ll.MoveToFront(el)
		return false
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		evicted = true
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
	return evicted
}

// Len returns the current entry count.
func (c *LRU[V]) Len() int { return c.ll.Len() }

// HitRate returns hits / (hits+misses) so far, or 0 before any lookup.
func (c *LRU[V]) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Reset clears contents and counters.
func (c *LRU[V]) Reset() {
	c.ll = list.New()
	c.items = make(map[string]*list.Element)
	c.hits, c.misses = 0, 0
}
