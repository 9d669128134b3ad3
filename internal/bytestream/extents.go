package bytestream

import (
	"sort"

	"h3cdn/internal/bufpool"
)

// Extents holds the supplied bytes of one sending stream: arena copies,
// each with its stream offset, in offset order. The opaque bytes between
// them are never stored. A sender copies out of it into every wire
// payload it builds (Payload), so no wire copy aliases an extent and an
// extent's only reader is the sender itself. The zero value is empty;
// Trim and Release keep the list's allocation.
type Extents struct {
	s []extent
}

type extent struct {
	off  uint64
	data []byte
}

func (e extent) end() uint64 { return e.off + uint64(len(e.data)) }

// Add stores a copy of p, taken from a, as the stream bytes at off,
// which must not precede the end of the last extent.
func (x *Extents) Add(a *bufpool.Arena, off uint64, p []byte) {
	if len(p) == 0 {
		return
	}
	data := a.Get(len(p))
	copy(data, p)
	x.s = append(x.s, extent{off: off, data: data})
}

// Payload returns a buffer from a holding stream bytes [off, off+n): the
// supplied ones copied from the extents that overlap the range, the
// opaque ones whatever the buffer held before.
func (x *Extents) Payload(a *bufpool.Arena, off uint64, n int) []byte {
	buf := a.Get(n)
	end := off + uint64(n)
	i := sort.Search(len(x.s), func(i int) bool { return x.s[i].end() > off })
	for _, e := range x.s[i:] {
		if e.off >= end {
			break
		}
		lo, hi := max(e.off, off), min(e.end(), end)
		copy(buf[lo-off:hi-off], e.data[lo-e.off:])
	}
	return buf
}

// Trim gives back to a every extent that ends at or below off. They form
// a prefix; the rest compact in place.
func (x *Extents) Trim(a *bufpool.Arena, off uint64) {
	n := 0
	for n < len(x.s) && x.s[n].end() <= off {
		a.Put(x.s[n].data)
		n++
	}
	if n == 0 {
		return
	}
	m := copy(x.s, x.s[n:])
	clear(x.s[m:])
	x.s = x.s[:m]
}

// Release gives every extent back to a.
func (x *Extents) Release(a *bufpool.Arena) { x.Trim(a, ^uint64(0)) }
