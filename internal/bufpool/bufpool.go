// Package bufpool provides the simulation's recyclers: Arena, a
// size-classed byte-buffer recycler for the hot path (wire records,
// framed blocks, transport packet payloads, supplied-byte extents and
// reassembly chunks) that also lends the arrays of the span lists
// holding those extents and chunks; FreeList, the LIFO free list every
// record pool is built from; and Recycler, a FreeList that hands a
// torn-down struct out again only from the scheduler event after its
// teardown. All are confined to one goroutine — a campaign worker's,
// running one universe at a time — so reuse needs no locking and, being
// plain slices, survives garbage-collection cycles: warm pools reach a
// steady state where every visit is served from the same allocation
// footprint. Buffers come back with the requested length but arbitrary
// contents — callers that care about content must overwrite it (the
// simulators only ever inspect lengths and headers).
package bufpool

// Byte buffer size classes are powers of two from 256B to 8MB, span
// array classes powers of two from 4 to 64Ki spans. Requests above the
// largest class fall through to plain allocation.
const (
	minClassBits   = 8  // 256
	maxClassBits   = 23 // 8MB
	numClasses     = maxClassBits - minClassBits + 1
	minSpanBits    = 2  // 4 spans
	maxSpanBits    = 16 // 64Ki spans
	numSpanClasses = maxSpanBits - minSpanBits + 1
)

// sizeClass returns the index of the smallest class, among the powers of
// two from 1<<minBits to 1<<maxBits, whose capacity fits n, or -1 when n
// is out of that range.
func sizeClass(n, minBits, maxBits int) int {
	if n > 1<<maxBits {
		return -1
	}
	c := 0
	for s := 1 << minBits; s < n; s <<= 1 {
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
