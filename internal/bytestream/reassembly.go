package bytestream

import (
	"sort"
	"time"

	"h3cdn/internal/bufpool"
)

// Reassembly is the receive side of one ordered byte stream, a TCP
// connection or a QUIC stream: it takes bytes at any offset, in any
// order, duplicated or overlapping, and hands them to the data callback
// once each and in order. What arrives beyond a hole is parked until the
// hole fills, so where a Reassembly sits decides what one hole blocks:
// all of a TCP connection, or one QUIC stream.
//
// Parked chunks are sorted by offset, at most one per offset. After a
// loss they arrive in increasing offset order, so an insert checks the
// tail before it searches, and a pop advances a head index instead of
// moving the rest. Between arrivals every parked chunk starts above the
// next expected offset, because the drain consumes the rest, so only the
// lowest can be next. The FIN is an offset, not a chunk: it parks
// nothing and opens no stall. The chunk array is lent by the arena the
// copies come from, and only while a chunk is parked: the first park
// borrows it, and the drain that pops the last chunk, or Release, gives
// it back. The zero value is an empty stream at 0.
type Reassembly struct {
	next   uint64         // every byte below it was delivered
	chunks []bufpool.Span // chunks[head:] are parked; the popped prefix is reclaimed lazily
	head   int
	fn     func(p []byte)

	fin        uint64 // the stream's length, once a FIN has said it
	hasFin     bool
	eof        bool
	stalled    bool
	stallStart time.Duration
}

// SetDataFunc registers the in-order delivery callback. It is read at
// every delivery, so a callback that replaces or clears itself in the
// middle of a drain takes effect from the next chunk on.
func (r *Reassembly) SetDataFunc(fn func(p []byte)) { r.fn = fn }

// Next returns the offset of the next byte to deliver.
func (r *Reassembly) Next() uint64 { return r.next }

// EOF reports whether the stream's end is known and every byte before
// it was delivered.
func (r *Reassembly) EOF() bool { return r.eof }

// Receive takes the bytes p at stream offset off; fin says that they end
// the stream. Bytes below Next are dropped. Bytes at Next go to the data
// callback as they are, with no copy: the caller's packet owns them for
// the call, which is all the Stream contract promises the callback.
// Bytes beyond a hole are parked — a copy from a, since the packet goes
// back once it is handled, or an opaque run by reference — and a longer
// chunk replaces a shorter one at its offset. Then the parked chunks
// drain up to the next hole, lowest first: with reordering, trimming
// can leave several overlapping chunks there, and the choice decides
// delivery granularity. Each is popped before its callback runs, so a
// Release inside the callback never sees it, and goes back to a after;
// the pop that empties the list gives the array back first.
//
// Receive reports whether this call reached EOF, which happens once.
func (r *Reassembly) Receive(a *bufpool.Arena, off uint64, p []byte, fin bool) (eof bool) {
	end := off + uint64(len(p))
	if fin {
		r.fin, r.hasFin = end, true
	}
	if end > r.next && len(p) > 0 {
		if off < r.next {
			p, off = p[r.next-off:], r.next
		}
		if off == r.next {
			r.deliver(p) // the chunk the drain would pick first, whole
		} else {
			r.park(a, off, p)
		}
	}
	for r.head < len(r.chunks) && r.chunks[r.head].Off <= r.next {
		c := r.chunks[r.head]
		r.chunks[r.head] = bufpool.Span{}
		if r.head++; r.head == len(r.chunks) {
			a.PutSpans(r.chunks[:0])
			r.chunks, r.head = nil, 0
		}
		if c.End() > r.next { // else a stale duplicate
			r.deliver(c.Data[r.next-c.Off:])
		}
		Recycle(a, c.Data)
	}
	if eof = r.hasFin && !r.eof && r.next >= r.fin; eof {
		r.eof = true
	}
	return eof
}

func (r *Reassembly) deliver(p []byte) {
	r.next += uint64(len(p))
	if r.fn != nil {
		r.fn(p)
	}
}

// park stores p at off, unless a chunk at least as long is there.
func (r *Reassembly) park(a *bufpool.Arena, off uint64, p []byte) {
	live := r.chunks[r.head:]
	i := len(live)
	if i > 0 && live[i-1].Off >= off {
		i = sort.Search(len(live), func(j int) bool { return live[j].Off >= off })
	}
	found := i < len(live) && live[i].Off == off
	if found && len(p) <= len(live[i].Data) {
		return
	}
	buf := p
	if !IsOpaque(p) {
		buf = a.Get(len(p))
		copy(buf, p)
	}
	if found {
		Recycle(a, live[i].Data)
		live[i].Data = buf
		return
	}
	if len(r.chunks) == cap(r.chunks) && r.head >= len(live) {
		// Full, and at least half of it popped: slide the parked chunks
		// to the front rather than grow. The half keeps the copying at
		// one move per chunk parked.
		n := copy(r.chunks, live)
		clear(r.chunks[n:])
		r.chunks, r.head = r.chunks[:n], 0
	}
	i += r.head
	r.chunks = a.AppendSpan(r.chunks, bufpool.Span{})
	copy(r.chunks[i+1:], r.chunks[i:])
	r.chunks[i] = bufpool.Span{Off: off, Data: buf}
}

// Stall reports whether the receives since the last call opened a
// head-of-line stall, an interval with bytes parked behind a hole, and
// how many bytes are parked; or closed one, and how long it was held. A
// tracer calls it after every receive; nothing else reads what it keeps.
func (r *Reassembly) Stall(now time.Duration) (opened bool, parked int, closed bool, held time.Duration) {
	live := r.chunks[r.head:]
	if opened = !r.stalled && len(live) > 0; opened {
		r.stallStart = now
		for _, c := range live {
			parked += len(c.Data)
		}
	}
	if closed = r.stalled && len(live) == 0; closed {
		held = now - r.stallStart
	}
	r.stalled = len(live) > 0
	return opened, parked, closed, held
}

// Release gives every parked chunk, and the chunk array, back to a. It
// keeps Next, the FIN, EOF and the stall: a teardown inside a delivery
// is followed by TCP's ACK. A recycled transport struct, whose teardown
// released it, is reset to a fresh one by zeroing.
func (r *Reassembly) Release(a *bufpool.Arena) {
	if r.chunks == nil {
		return
	}
	for _, c := range r.chunks[r.head:] {
		Recycle(a, c.Data)
	}
	a.PutSpans(r.chunks)
	r.chunks, r.head = nil, 0
}
