package bytestream

import (
	"math/rand"
	"slices"
	"testing"

	"h3cdn/internal/bufpool"
)

// TestExtentsPayloadMatchesStream writes random supplied and opaque
// runs, then builds payloads of random ranges and trims at random
// offsets: every supplied byte of a payload must be the one written at
// its offset, a range with no supplied byte must be an opaque run that
// takes no buffer, and every extent and payload buffer, and the extent
// list's array, must be back in the arenas after Release. Only buffers are scribbled on and Put: a
// run is shared and read-only.
func TestExtentsPayloadMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(32)) //nolint:gosec
	for trial := 0; trial < 200; trial++ {
		var a, payloads bufpool.Arena
		var x Extents
		var dense []byte    // the stream; opaque positions are zero
		var supplied []bool // which positions a writer specified
		for w := rng.Intn(40); w > 0; w-- {
			head := make([]byte, rng.Intn(300))
			rng.Read(head)
			x.Add(&a, uint64(len(dense)), head)
			dense = append(dense, head...)
			for range head {
				supplied = append(supplied, true)
			}
			for n := rng.Intn(500); n > 0; n-- {
				dense = append(dense, 0)
				supplied = append(supplied, false)
			}
		}
		trimmed := 0
		for op := 0; op < 30 && len(dense) > 0; op++ {
			if rng.Intn(4) == 0 {
				trimmed += rng.Intn(len(dense) - trimmed + 1)
				x.Trim(&a, uint64(trimmed))
				continue
			}
			off := trimmed + rng.Intn(len(dense)-trimmed+1)
			n := rng.Intn(len(dense) - off + 1)
			gets := payloads.Stats().Gets
			buf := x.Payload(&payloads, uint64(off), n)
			if len(buf) != n {
				t.Fatalf("trial %d: payload of %d bytes at %d has length %d", trial, n, off, len(buf))
			}
			for i, sup := range supplied[off : off+len(buf)] {
				if sup && buf[i] != dense[off+i] {
					t.Fatalf("trial %d: payload of %d bytes at %d: byte %d is not the one written", trial, len(buf), off, off+i)
				}
			}
			allOpaque := !slices.Contains(supplied[off:off+n], true)
			if took := payloads.Stats().Gets != gets; IsOpaque(buf) == took || allOpaque && n <= MaxOpaque && took {
				t.Fatalf("trial %d: payload of %d bytes at %d, all opaque %v: opaque run %v, took a buffer %v", trial, n, off, allOpaque, IsOpaque(buf), took)
			}
			if !IsOpaque(buf) {
				rng.Read(buf) // whatever the next payload from this buffer holds
				payloads.Put(buf)
			}
		}
		x.Release(&a)
		if st := a.Stats(); st.InUse != 0 || st.Lent != 0 || x.s != nil || payloads.Stats().InUse != 0 {
			t.Fatalf("trial %d: after Release: %+v, %d extents, payloads %+v", trial, st, len(x.s), payloads.Stats())
		}
	}
}
