package quicsim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// refStream is Stream's receive path as a map: every frame parked in a
// map keyed by offset, and the whole map scanned for the lowest eligible
// chunk on each pass. It is the oracle receive must reproduce delivery
// for delivery.
type refStream struct {
	rcvOff uint64
	chunks map[uint64][]byte
	finOff uint64
	hasFin bool
	gotEOF bool
	log    []delivery
	eofAt  int
}

// delivery is one data callback: the arrival that caused it, and the
// stream offset and length it carried.
type delivery struct {
	arrival, off, n int
}

func (r *refStream) receive(arrival int, f streamData) {
	if f.fin {
		r.hasFin = true
		r.finOff = f.off + uint64(len(f.data))
	}
	end := f.off + uint64(len(f.data))
	if end > r.rcvOff && len(f.data) > 0 {
		data := f.data
		off := f.off
		if off < r.rcvOff {
			data = data[r.rcvOff-off:]
			off = r.rcvOff
		}
		if prev, ok := r.chunks[off]; !ok || len(data) > len(prev) {
			r.chunks[off] = data
		}
	}
	for {
		var best uint64
		found := false
		for off := range r.chunks {
			if off > r.rcvOff {
				continue
			}
			if !found || off < best {
				best = off
				found = true
			}
		}
		if !found {
			break
		}
		off := best
		data := r.chunks[off]
		end := off + uint64(len(data))
		delete(r.chunks, off)
		if end <= r.rcvOff {
			continue
		}
		chunk := data[r.rcvOff-off:]
		r.log = append(r.log, delivery{arrival, int(r.rcvOff), len(chunk)})
		r.rcvOff = end
	}
	if r.hasFin && !r.gotEOF && r.rcvOff >= r.finOff {
		r.gotEOF = true
		r.eofAt = arrival
	}
}

// frameArrivals cuts payload into a random frame schedule: the original
// frames, FIN on the last (or on a bare FIN frame after it), plus exact
// duplicates and overlapping re-framings that a receiver trims, in one of
// four orders — in order, in order with local swaps, with lost originals
// arriving late as retransmissions, or shuffled.
func frameArrivals(rng *rand.Rand, payload []byte) []streamData {
	var frames []streamData
	for off := 0; off < len(payload); {
		n := 1 + rng.Intn(maxPacketPayload)
		if off+n > len(payload) {
			n = len(payload) - off
		}
		frames = append(frames, streamData{off: uint64(off), data: payload[off : off+n]})
		off += n
	}
	if rng.Intn(3) == 0 {
		frames = append(frames, streamData{off: uint64(len(payload)), fin: true})
	} else {
		frames[len(frames)-1].fin = true
	}
	mode := rng.Intn(4)
	if mode == 0 {
		return frames
	}
	var extra []streamData
	for i := 0; i < len(frames)/4; i++ {
		extra = append(extra, frames[rng.Intn(len(frames))])
	}
	for i := 0; i < 1+len(frames)/5 && len(payload) > 1; i++ {
		// Half start at an original boundary, so they collide with
		// parked chunks.
		start := rng.Intn(len(payload) - 1)
		if orig := frames[rng.Intn(len(frames))]; rng.Intn(2) == 0 && int(orig.off) < len(payload)-1 {
			start = int(orig.off)
		}
		end := start + 1 + rng.Intn(len(payload)-start-1)
		if rng.Intn(4) == 0 {
			end = len(payload)
		}
		extra = append(extra, streamData{off: uint64(start), data: payload[start:end],
			fin: end == len(payload) && rng.Intn(2) == 0})
	}
	switch mode {
	case 1:
		frames = append(frames, extra...)
		for i := 1; i < len(frames); i++ {
			if rng.Intn(4) == 0 {
				frames[i-1], frames[i] = frames[i], frames[i-1]
			}
		}
	case 2:
		var late []streamData
		kept := frames[:0]
		for _, f := range frames {
			if rng.Intn(6) == 0 {
				late = append(late, f)
			} else {
				kept = append(kept, f)
			}
		}
		frames = append(append(kept, extra...), late...)
	default:
		frames = append(frames, extra...)
		rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	}
	return frames
}

// TestReassemblyMatchesReference: for random arrival schedules, the
// stream's receive path, from receive through its Reassembly to the data
// and FIN callbacks, delivers exactly the reference's (arrival, offset,
// length) sequence — the same bytes in the same callbacks at the same
// frame — signals EOF at the same frame, and gives every parked copy
// back.
func TestReassemblyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26)) //nolint:gosec
	for trial := 0; trial < 500; trial++ {
		payload := patterned(1 + rng.Intn(20_000))
		frames := frameArrivals(rng, payload)

		ref := &refStream{chunks: map[uint64][]byte{}, eofAt: -1}
		for i, f := range frames {
			ref.receive(i, f)
		}

		s := &Stream{conn: &Conn{pools: &Pools{}}}
		var log []delivery
		got, eofAt, arrival := 0, -1, 0
		s.SetDataFunc(func(p []byte) {
			if !bytes.Equal(p, payload[got:got+len(p)]) {
				t.Fatalf("trial %d: delivery at offset %d is not the payload's bytes", trial, got)
			}
			log = append(log, delivery{arrival, got, len(p)})
			got += len(p)
		})
		s.SetFinFunc(func() { eofAt = arrival })
		for i, f := range frames {
			arrival = i
			s.receive(f)
		}

		if !slices.Equal(log, ref.log) {
			t.Fatalf("trial %d: deliveries\n got %v\nwant %v", trial, log, ref.log)
		}
		if eofAt != ref.eofAt || eofAt < 0 || got != len(payload) || s.conn.pools.payloads.Stats().InUse != 0 {
			t.Fatalf("trial %d: EOF at arrival %d after %d bytes (payload arena %+v), reference at %d, payload %d",
				trial, eofAt, got, s.conn.pools.payloads.Stats(), ref.eofAt, len(payload))
		}
	}
}
