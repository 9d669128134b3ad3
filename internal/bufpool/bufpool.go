// Package bufpool provides the simulation's two recyclers: Arena, a
// size-classed byte-buffer recycler for the hot path (wire records,
// framed blocks, transport packet payloads, supplied-byte extents and
// reassembly chunks), and FreeList, the LIFO free list every
// per-universe record pool is built from. Both are confined to one
// goroutine — the owning universe's scheduler — so reuse needs no
// locking and, being plain
// slices, survives garbage-collection cycles: a warm shard reaches a
// steady state where every visit is served from the same allocation
// footprint. Buffers come back with the requested length but arbitrary
// contents — callers that care about content must overwrite it (the
// simulators only ever inspect lengths and headers).
package bufpool

// Size classes are powers of two from 256B to 8MB. Requests above the
// largest class fall through to plain allocation.
const (
	minClassBits = 8  // 256
	maxClassBits = 23 // 8MB
	numClasses   = maxClassBits - minClassBits + 1
)

// classFor returns the class index whose capacity fits n, or -1 when n
// is out of the pooled range.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for s := 1 << minClassBits; s < n; s <<= 1 {
		c++
	}
	return c
}

// FreeList is a LIFO free list of recycled values. The zero value is
// empty and ready to use.
type FreeList[T any] []T

// Get pops the most recently Put value; ok is false when the list is
// empty. The vacated slot is zeroed so the list never pins a value it
// has handed out.
func (l *FreeList[T]) Get() (v T, ok bool) {
	s := *l
	n := len(s) - 1
	if n < 0 {
		return v, false
	}
	var zero T
	v, s[n] = s[n], zero
	*l = s[:n]
	return v, true
}

// Put pushes v for a later Get.
func (l *FreeList[T]) Put(v T) { *l = append(*l, v) }
