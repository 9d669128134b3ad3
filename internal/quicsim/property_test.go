package quicsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRangeSetMatchesReference: rangeSet must behave exactly like a set of
// integers under arbitrary insertion orders.
func TestRangeSetMatchesReference(t *testing.T) {
	f := func(raw []uint8) bool {
		var rs rangeSet
		ref := make(map[uint64]bool)
		for _, v := range raw {
			pn := uint64(v % 64) // force collisions and adjacency
			added := rs.add(pn)
			if added == ref[pn] {
				return false // add must report prior membership
			}
			ref[pn] = true
		}
		for pn := uint64(0); pn < 70; pn++ {
			if rs.contains(pn) != ref[pn] {
				return false
			}
		}
		// Ranges must be sorted, non-overlapping, non-adjacent.
		for i := 1; i < len(rs.ranges); i++ {
			if rs.ranges[i-1].hi+1 >= rs.ranges[i].lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReassemblyAnyOrder: delivering stream frames in any order,
// with duplicates and overlaps, must reconstruct the exact byte stream.
func TestStreamReassemblyAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99)) //nolint:gosec
	for trial := 0; trial < 200; trial++ {
		payload := patterned(1 + rng.Intn(5000))

		// Chop into random frames.
		var frames []streamData
		for off := 0; off < len(payload); {
			n := 1 + rng.Intn(700)
			if off+n > len(payload) {
				n = len(payload) - off
			}
			frames = append(frames, streamData{
				id: 0, off: uint64(off), data: payload[off : off+n],
				fin: off+n == len(payload),
			})
			off += n
		}
		// Duplicate some frames (retransmissions).
		for i := 0; i < len(frames)/3; i++ {
			frames = append(frames, frames[rng.Intn(len(frames))])
		}
		rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })

		s := &Stream{conn: &Conn{pools: &Pools{}}}
		var got []byte
		finSeen := false
		s.SetDataFunc(func(p []byte) { got = append(got, p...) })
		s.SetFinFunc(func() { finSeen = true })
		for _, f := range frames {
			s.receive(f)
		}
		if !finSeen {
			t.Fatalf("trial %d: FIN not delivered", trial)
		}
		if len(got) != len(payload) {
			t.Fatalf("trial %d: got %d bytes, want %d", trial, len(got), len(payload))
		}
		for i := range got {
			if got[i] != payload[i] {
				t.Fatalf("trial %d: byte %d differs", trial, i)
			}
		}
	}
}

// contains reports whether pn has been recorded.
func (s *rangeSet) contains(pn uint64) bool {
	for _, r := range s.ranges {
		if r.lo <= pn && pn <= r.hi {
			return true
		}
	}
	return false
}

// largest returns the highest recorded packet number (ok=false if empty).
func (s *rangeSet) largest() (uint64, bool) {
	if len(s.ranges) == 0 {
		return 0, false
	}
	return s.ranges[len(s.ranges)-1].hi, true
}
