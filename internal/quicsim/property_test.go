package quicsim

import (
	"bytes"
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

// TestStreamReassemblyAnyOrder: randomly cut frames, with the FIN on the
// last one or on a bare FIN frame after it, duplicated and shuffled,
// reach the application through handleStreamData as the exact byte
// stream, followed by one FIN, on the one stream the first of them
// opened. The arrival-by-arrival rules are bytestream.Reassembly's,
// checked against an oracle there; this is the wiring.
func TestStreamReassemblyAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99)) //nolint:gosec
	for trial := 0; trial < 200; trial++ {
		payload := patterned(1 + rng.Intn(5000))
		var frames []streamData
		for off := 0; off < len(payload); {
			n := min(1+rng.Intn(700), len(payload)-off)
			frames = append(frames, streamData{id: 4, off: uint64(off), data: payload[off : off+n]})
			off += n
		}
		if rng.Intn(3) == 0 {
			frames = append(frames, streamData{id: 4, off: uint64(len(payload)), fin: true})
		} else {
			frames[len(frames)-1].fin = true
		}
		for i := 0; i < len(frames)/3; i++ {
			frames = append(frames, frames[rng.Intn(len(frames))])
		}
		rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })

		c := allocConn()
		c.pools = &Pools{}
		var got []byte
		fins, opened := 0, 0
		c.SetStreamFunc(func(s *Stream) {
			opened++
			s.SetDataFunc(func(p []byte) { got = append(got, p...) })
			s.SetFinFunc(func() { fins++ })
		})
		for _, f := range frames {
			c.handleStreamData(f)
		}
		if !bytes.Equal(got, payload) || fins != 1 || opened != 1 {
			t.Fatalf("trial %d: %d of %d bytes (equal %v), %d FINs, %d streams",
				trial, len(got), len(payload), bytes.Equal(got, payload), fins, opened)
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
