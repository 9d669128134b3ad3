package bytestream

import "h3cdn/internal/bufpool"

// MaxOpaque is the longest opaque run, well above the largest segment or
// frame payload a transport builds (a TCP MSS, a QUIC packet payload).
const MaxOpaque = 1 << 14

// opaqueRun backs every opaque run: zero bytes that no one owns and no
// one writes.
var opaqueRun [MaxOpaque]byte

// Opaque returns n bytes of the shared opaque run, or nil when n is 0.
// The slice is read-only and belongs to no arena: nobody writes to it,
// appends to it or Puts it. It ends where the run's array ends, so its
// capacity equals its length and an append reallocates. n must not
// exceed MaxOpaque.
func Opaque(n int) []byte {
	if n == 0 {
		return nil
	}
	return opaqueRun[MaxOpaque-n:]
}

// IsOpaque reports whether p holds no buffer of its own: it is a slice of
// the opaque run (any prefix or suffix of an Opaque result) or it has no
// capacity at all. Such a slice is never returned to an arena.
func IsOpaque(p []byte) bool {
	return cap(p) == 0 || &p[:cap(p)][cap(p)-1] == &opaqueRun[MaxOpaque-1]
}

// Recycle gives p back to a unless it is an opaque run, which belongs to
// no arena. Every holder of a payload or parked chunk that may be a run
// releases it this way.
func Recycle(a *bufpool.Arena, p []byte) {
	if !IsOpaque(p) {
		a.Put(p)
	}
}
