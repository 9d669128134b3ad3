package bytestream

import (
	"math/rand"
	"testing"

	"h3cdn/internal/bufpool"
)

// TestExtentsPayloadMatchesStream writes random supplied and opaque
// runs, then builds payloads of random ranges and trims at random
// offsets: every supplied byte of a payload must be the one written at
// its offset, and every extent and payload must be back in the arenas
// after Release.
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
			buf := x.Payload(&payloads, uint64(off), rng.Intn(len(dense)-off+1))
			for i, sup := range supplied[off : off+len(buf)] {
				if sup && buf[i] != dense[off+i] {
					t.Fatalf("trial %d: payload of %d bytes at %d: byte %d is not the one written", trial, len(buf), off, off+i)
				}
			}
			rng.Read(buf) // whatever the next payload from this buffer holds
			payloads.Put(buf)
		}
		x.Release(&a)
		if st := a.Stats(); st.InUse != 0 || len(x.s) != 0 || payloads.Stats().InUse != 0 {
			t.Fatalf("trial %d: after Release: %+v, %d extents, payloads %+v", trial, st, len(x.s), payloads.Stats())
		}
	}
}
