package bytestream

import "sort"

// Gaps is a reassembly buffer: the chunks of an ordered byte stream that
// arrived ahead of a hole, sorted by stream offset with at most one chunk
// per offset. C is the receiver's chunk payload (an arena copy in both
// transports; tcpsim adds a FIN flag).
//
// Both transports use it the same way: park a chunk that starts beyond
// the next expected offset, and when the hole fills, repeatedly take the
// lowest-offset chunk. Out-of-order arrivals land in increasing offset
// order after a loss, so Slot checks the tail before it searches, and
// Pop advances a head index instead of moving the rest: Head and Pop are
// O(1), a tail insert amortized O(1), and only an insert into the middle
// moves the chunks above it. The zero value is empty and ready to use;
// Reset keeps the allocation for the next stream.
type Gaps[C any] struct {
	s    []gapChunk[C]
	head int // s[head:] is live; the popped prefix is reclaimed lazily
}

type gapChunk[C any] struct {
	off uint64
	c   C
}

// Len reports the number of buffered chunks.
func (g *Gaps[C]) Len() int { return len(g.s) - g.head }

// Head returns the lowest-offset chunk; ok is false when none is buffered.
func (g *Gaps[C]) Head() (off uint64, c C, ok bool) {
	if g.head == len(g.s) {
		return 0, c, false
	}
	h := &g.s[g.head]
	return h.off, h.c, true
}

// Pop removes the lowest-offset chunk. The buffer must not be empty.
func (g *Gaps[C]) Pop() {
	g.s[g.head] = gapChunk[C]{}
	g.head++
	if g.head == len(g.s) {
		g.s, g.head = g.s[:0], 0
	}
}

// Slot returns the chunk stored at off and found == true, or inserts a
// zero chunk at off in order and returns it with found == false. The
// pointer is valid until the next Slot, Pop or Reset.
func (g *Gaps[C]) Slot(off uint64) (c *C, found bool) {
	live := g.s[g.head:]
	i := len(live)
	if i > 0 && live[i-1].off >= off {
		i = sort.Search(len(live), func(j int) bool { return live[j].off >= off })
		if live[i].off == off {
			return &live[i].c, true
		}
	}
	if len(g.s) == cap(g.s) && g.head >= len(live) {
		// Full, and at least half of it popped: slide the live chunks to
		// the front rather than grow. The half keeps the copying at one
		// move per chunk inserted.
		n := copy(g.s, live)
		clear(g.s[n:])
		g.s, g.head = g.s[:n], 0
	}
	i += g.head
	g.s = append(g.s, gapChunk[C]{})
	copy(g.s[i+1:], g.s[i:])
	g.s[i] = gapChunk[C]{off: off}
	return &g.s[i].c, false
}

// Each calls fn on every buffered chunk in offset order.
func (g *Gaps[C]) Each(fn func(off uint64, c C)) {
	for _, ch := range g.s[g.head:] {
		fn(ch.off, ch.c)
	}
}

// Reset drops every chunk and keeps the allocation.
func (g *Gaps[C]) Reset() {
	clear(g.s)
	g.s, g.head = g.s[:0], 0
}
