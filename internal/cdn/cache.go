package cdn

import "time"

// LRUCache is a bounded least-recently-used cache over any comparable
// key. It models a CDN edge's content cache: hits answer locally, misses
// trigger an origin fetch. Entries form an intrusive doubly-linked
// recency list (front = most recent), so membership tests and recency
// refreshes allocate nothing; keying by a struct lets callers avoid
// building concatenated string keys on the per-request path.
//
// Entries may carry a TTL: AddAt stamps an absolute expiry and
// ContainsAt treats an entry past its expiry as a miss (evicting it in
// place). The zero expiry means "never expires", so the
// Contains/Add pair — which always passes zero — is the TTL-free
// special case of the same cache.
type LRUCache[K comparable] struct {
	capacity    int
	items       map[K]*lruNode[K]
	front, back *lruNode[K]
}

type lruNode[K comparable] struct {
	key        K
	expiresAt  time.Duration // 0 = never expires
	prev, next *lruNode[K]
}

// NewLRUCache returns a cache bounded to capacity entries (min 1). The
// map grows with what is actually cached: every edge of every universe
// builds one, and most never come near their bound.
func NewLRUCache[K comparable](capacity int) *LRUCache[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRUCache[K]{
		capacity: capacity,
		items:    make(map[K]*lruNode[K]),
	}
}

func (c *LRUCache[K]) moveToFront(n *lruNode[K]) {
	if c.front == n {
		return
	}
	// Unlink (n is in the list and is not front, so n.prev != nil).
	n.prev.next = n.next
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.back = n.prev
	}
	// Relink at front.
	n.prev = nil
	n.next = c.front
	c.front.prev = n
	c.front = n
}

// Contains checks membership and refreshes recency on hit. TTL-stamped
// entries never expire through this path (it observes no clock); use
// ContainsAt on caches populated via AddAt.
func (c *LRUCache[K]) Contains(key K) bool {
	hit, _ := c.ContainsAt(key, 0)
	return hit
}

// ContainsAt checks membership at virtual time now, refreshing recency
// on hit. An entry whose expiry has passed (0 < expiresAt ≤ now) is
// evicted in place and reported expired — a miss, the TTL lapse a real
// edge discovers on the request that revalidates the object. The cache
// counts nothing: its holder does, so a cache carried from one holder
// to the next carries no counters.
func (c *LRUCache[K]) ContainsAt(key K, now time.Duration) (hit, expired bool) {
	n, ok := c.items[key]
	if !ok {
		return false, false
	}
	if n.expiresAt > 0 && n.expiresAt <= now {
		c.unlink(n)
		delete(c.items, key)
		return false, true
	}
	c.moveToFront(n)
	return true, false
}

// Add inserts key with no expiry, evicting the least recently used
// entry if full.
func (c *LRUCache[K]) Add(key K) {
	c.AddAt(key, 0)
}

// AddAt inserts key with an absolute expiry time (0 = never expires),
// evicting the least recently used entry if full. Re-adding a resident
// key refreshes recency and re-stamps its expiry (a cache refill after
// revalidation).
func (c *LRUCache[K]) AddAt(key K, expiresAt time.Duration) {
	if n, ok := c.items[key]; ok {
		n.expiresAt = expiresAt
		c.moveToFront(n)
		return
	}
	n := &lruNode[K]{key: key, expiresAt: expiresAt}
	if len(c.items) >= c.capacity && c.back != nil {
		evict := c.back
		c.unlink(evict)
		delete(c.items, evict.key)
	}
	n.next = c.front
	if c.front != nil {
		c.front.prev = n
	}
	c.front = n
	if c.back == nil {
		c.back = n
	}
	c.items[key] = n
}

// unlink removes n from the recency list (it must be resident).
func (c *LRUCache[K]) unlink(n *lruNode[K]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.front = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.back = n.prev
	}
	n.prev, n.next = nil, nil
}

// Len reports the number of cached entries.
func (c *LRUCache[K]) Len() int { return len(c.items) }

// Cache is an edge's content cache. It outlives the edge that fills
// it: a population shard keeps one per provider for its whole life and
// hands it to each epoch's edge (EdgeConfig.Cache).
type Cache struct {
	LRUCache[resourceKey]
}

// defaultCacheCapacity is an edge cache's bound when none is configured.
const defaultCacheCapacity = 8192

// NewCache returns an empty edge cache bounded to capacity entries
// (defaultCacheCapacity when 0).
func NewCache(capacity int) *Cache {
	if capacity == 0 {
		capacity = defaultCacheCapacity
	}
	return &Cache{*NewLRUCache[resourceKey](capacity)}
}

// CacheEntry is one cached resource in a checkpoint dump.
type CacheEntry struct {
	Host      string        `json:"host"`
	Path      string        `json:"path"`
	ExpiresAt time.Duration `json:"expiresAt,omitempty"`
}

// Dump snapshots the cache contents, least recently used first, with
// absolute expiries: the order in which Restore's re-adds rebuild the
// recency list exactly. It is the serializable half of a traffic
// checkpoint.
func (c *Cache) Dump() []CacheEntry {
	out := make([]CacheEntry, 0, len(c.items))
	for n := c.back; n != nil; n = n.prev {
		out = append(out, CacheEntry{Host: n.key.host, Path: n.key.path, ExpiresAt: n.expiresAt})
	}
	return out
}

// Restore replays a Dump, least recent first, rebuilding contents,
// expiries and recency order (checkpoint resume).
func (c *Cache) Restore(entries []CacheEntry) {
	for _, en := range entries {
		c.AddAt(resourceKey{en.Host, en.Path}, en.ExpiresAt)
	}
}
