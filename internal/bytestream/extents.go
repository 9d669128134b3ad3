package bytestream

import (
	"sort"

	"h3cdn/internal/bufpool"
)

// Extents holds the supplied bytes of one sending stream: arena copies,
// each with its stream offset, in offset order. The opaque bytes between
// them are never stored. A sender copies out of it into every wire
// payload it builds (Payload), so no wire copy aliases an extent and an
// extent's only reader is the sender itself; an all-opaque payload is
// an opaque run and copies nothing. The zero value is empty, and an
// empty list holds no array: the first Add borrows one from the arena
// the copies come from, and a Trim that empties the list gives it back.
type Extents struct {
	s []bufpool.Span
}

// Add stores a copy of p, taken from a, as the stream bytes at off,
// which must not precede the end of the last extent.
func (x *Extents) Add(a *bufpool.Arena, off uint64, p []byte) {
	if len(p) == 0 {
		return
	}
	data := a.Get(len(p))
	copy(data, p)
	x.s = a.AppendSpan(x.s, bufpool.Span{Off: off, Data: data})
}

// Payload returns stream bytes [off, off+n). A range that overlaps no
// extent is all opaque and gets Opaque(n), which holds no buffer; any
// other gets a buffer from a holding the supplied bytes copied from the
// extents that overlap it, the opaque ones whatever the buffer held
// before. The caller gives it back with Recycle, which skips a run.
func (x *Extents) Payload(a *bufpool.Arena, off uint64, n int) []byte {
	end := off + uint64(n)
	i := sort.Search(len(x.s), func(i int) bool { return x.s[i].End() > off })
	if n == 0 || (n <= MaxOpaque && (i == len(x.s) || x.s[i].Off >= end)) {
		return Opaque(n)
	}
	buf := a.Get(n)
	for _, e := range x.s[i:] {
		if e.Off >= end {
			break
		}
		lo, hi := max(e.Off, off), min(e.End(), end)
		copy(buf[lo-off:hi-off], e.Data[lo-e.Off:])
	}
	return buf
}

// Trim gives back to a every extent that ends at or below off. They form
// a prefix; the rest compact in place, and an emptied list gives its
// array back too.
func (x *Extents) Trim(a *bufpool.Arena, off uint64) {
	n := 0
	for n < len(x.s) && x.s[n].End() <= off {
		a.Put(x.s[n].Data)
		n++
	}
	switch {
	case n == 0:
	case n == len(x.s):
		a.PutSpans(x.s)
		x.s = nil
	default:
		m := copy(x.s, x.s[n:])
		clear(x.s[m:])
		x.s = x.s[:m]
	}
}

// Release gives every extent, and the list's array, back to a.
func (x *Extents) Release(a *bufpool.Arena) { x.Trim(a, ^uint64(0)) }
