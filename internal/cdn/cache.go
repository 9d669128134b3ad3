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
// place). The zero expiry means "never expires", so the legacy
// Contains/Add pair — which always passes zero — is the TTL-free
// special case of the same cache.
type LRUCache[K comparable] struct {
	capacity    int
	items       map[K]*lruNode[K]
	front, back *lruNode[K]

	hits, misses, expired int64
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
	return c.ContainsAt(key, 0)
}

// ContainsAt checks membership at virtual time now, refreshing recency
// on hit. An entry whose expiry has passed (0 < expiresAt ≤ now) is
// evicted in place and counts as a miss — the TTL lapse a real edge
// discovers on the request that revalidates the object.
func (c *LRUCache[K]) ContainsAt(key K, now time.Duration) bool {
	n, ok := c.items[key]
	if !ok {
		c.misses++
		return false
	}
	if n.expiresAt > 0 && n.expiresAt <= now {
		c.unlink(n)
		delete(c.items, key)
		c.expired++
		c.misses++
		return false
	}
	c.moveToFront(n)
	c.hits++
	return true
}

// Peek reports membership without refreshing recency, mutating hit/miss
// counters, or evicting an expired entry — the read-only probe for
// callers that only query (an expired-but-resident entry still reports
// false). Contains is for request handling; Peek is for inspection.
func (c *LRUCache[K]) Peek(key K) bool {
	return c.PeekAt(key, 0)
}

// PeekAt is Peek against virtual time now: resident entries past their
// expiry report false, but nothing is evicted or counted.
func (c *LRUCache[K]) PeekAt(key K, now time.Duration) bool {
	n, ok := c.items[key]
	if !ok {
		return false
	}
	return n.expiresAt == 0 || n.expiresAt > now
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

// Entry is one cached key with its absolute expiry (0 = never), as
// dumped by Entries and replayed by Restore.
type Entry[K comparable] struct {
	Key       K
	ExpiresAt time.Duration
}

// Entries returns the cache contents from least to most recently used —
// the order in which re-adding them reproduces the recency list exactly.
// Counters are not part of the dump.
func (c *LRUCache[K]) Entries() []Entry[K] {
	out := make([]Entry[K], 0, len(c.items))
	for n := c.back; n != nil; n = n.prev {
		out = append(out, Entry[K]{Key: n.key, ExpiresAt: n.expiresAt})
	}
	return out
}

// Restore replays a dump from Entries into an empty-or-not cache via
// AddAt, least recent first, reconstructing contents, expiries, and
// recency order (checkpoint resume).
func (c *LRUCache[K]) Restore(entries []Entry[K]) {
	for _, e := range entries {
		c.AddAt(e.Key, e.ExpiresAt)
	}
}

// Len reports the number of cached entries.
func (c *LRUCache[K]) Len() int { return len(c.items) }

// Expired reports how many ContainsAt calls evicted an entry past its
// TTL (each also counts as a miss).
func (c *LRUCache[K]) Expired() int64 { return c.expired }

// Hits reports how many Contains calls found their key.
func (c *LRUCache[K]) Hits() int64 { return c.hits }

// Misses reports how many Contains calls missed.
func (c *LRUCache[K]) Misses() int64 { return c.misses }

// HitRate reports hits/(hits+misses) since creation (0 when unused).
func (c *LRUCache[K]) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
