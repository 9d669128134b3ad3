package tcpsim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// refReceiver is the receive path as a map: every segment beyond a hole
// parked in a map keyed by start, and the whole map scanned for the
// lowest eligible chunk on each pass. The FIN is an offset, as it is in
// the conn. It is the oracle handleSegment must reproduce delivery for
// delivery.
type refReceiver struct {
	rcvNxt  uint64
	recvBuf map[uint64][]byte
	finSeq  uint64
	hasFin  bool
	peerEOF bool
	got     int
	log     []delivery
	eofAt   int
}

// delivery is one data callback: the arrival that caused it, and the
// stream offset and length it carried.
type delivery struct {
	arrival, off, n int
}

func (r *refReceiver) processData(arrival int, seg *segment) {
	if seg.flags&flagFIN != 0 {
		r.finSeq, r.hasFin = seg.seq+uint64(len(seg.payload)), true
	}
	if seg.seq+uint64(len(seg.payload)) > r.rcvNxt && len(seg.payload) > 0 {
		payload, start := seg.payload, seg.seq
		if start < r.rcvNxt {
			payload, start = payload[r.rcvNxt-start:], r.rcvNxt
		}
		if prev, ok := r.recvBuf[start]; !ok || len(payload) > len(prev) {
			r.recvBuf[start] = append([]byte(nil), payload...)
		}
	}
	for {
		var best uint64
		found := false
		for start := range r.recvBuf {
			if start <= r.rcvNxt && (!found || start < best) {
				best, found = start, true
			}
		}
		if !found {
			break
		}
		data := r.recvBuf[best]
		delete(r.recvBuf, best)
		if end := best + uint64(len(data)); end > r.rcvNxt {
			n := int(end - r.rcvNxt)
			r.log = append(r.log, delivery{arrival, r.got, n})
			r.got += n
			r.rcvNxt = end
		}
	}
	if r.hasFin && !r.peerEOF && r.rcvNxt >= r.finSeq {
		r.peerEOF, r.eofAt = true, arrival
	}
}

// receiverConn is an established conn wired to nothing: handleSegment's
// ACKs go to a dead network, which is fine for receive-side logic.
func receiverConn(arena *bufpool.Arena) *Conn {
	sched := &simnet.Scheduler{MaxEvents: 1_000_000}
	net := simnet.NewNetwork(sched, nil, seqrand.New(1))
	host := net.AddHost("recv")
	c := newConn(host, "", Config{Arena: arena}.withDefaults())
	c.isClient = true
	c.localPort = host.BindEphemeral(func(simnet.Packet) {})
	c.state = stateEstablished
	return c
}

// arrivals cuts payload into a random segment schedule: the original
// segments, FIN on the last (or on a bare FIN segment after it), plus
// exact duplicates and overlapping re-segmentations that a receiver
// trims, in one of four orders — in order, in order with local swaps,
// with lost originals arriving late as retransmissions, or shuffled.
func arrivals(rng *rand.Rand, payload []byte) []*segment {
	var segs []*segment
	bareFin := rng.Intn(3) == 0
	for off := 0; off < len(payload); {
		n := min(1+rng.Intn(mss), len(payload)-off)
		segs = append(segs, &segment{seq: uint64(off), payload: payload[off : off+n]})
		off += n
	}
	if bareFin {
		segs = append(segs, &segment{seq: uint64(len(payload)), flags: flagFIN})
	} else {
		segs[len(segs)-1].flags |= flagFIN
	}
	mode := rng.Intn(4)
	if mode == 0 {
		return segs
	}
	var extra []*segment
	for i := 0; i < len(segs)/4; i++ {
		extra = append(extra, segs[rng.Intn(len(segs))])
	}
	if bareFin {
		// The last data segment retransmitted with the FIN piggybacked,
		// as a retransmission from sndUna sends it.
		last := segs[len(segs)-2]
		extra = append(extra, &segment{seq: last.seq, payload: last.payload, flags: flagFIN})
	}
	for i := 0; i < 1+len(segs)/5 && len(payload) > 1; i++ {
		// Half start at an original boundary, as a retransmission from
		// sndUna does, so they collide with parked chunks.
		start := rng.Intn(len(payload) - 1)
		if orig := segs[rng.Intn(len(segs))]; rng.Intn(2) == 0 && int(orig.seq) < len(payload)-1 {
			start = int(orig.seq)
		}
		end := start + 1 + rng.Intn(len(payload)-start-1)
		if rng.Intn(4) == 0 {
			end = len(payload)
		}
		seg := &segment{seq: uint64(start), payload: payload[start:end]}
		if end == len(payload) && rng.Intn(2) == 0 {
			seg.flags |= flagFIN
		}
		extra = append(extra, seg)
	}
	switch mode {
	case 1:
		segs = append(segs, extra...)
		for i := 1; i < len(segs); i++ {
			if rng.Intn(4) == 0 {
				segs[i-1], segs[i] = segs[i], segs[i-1]
			}
		}
	case 2:
		var late []*segment
		kept := segs[:0]
		for _, s := range segs {
			if rng.Intn(6) == 0 {
				late = append(late, s)
			} else {
				kept = append(kept, s)
			}
		}
		segs = append(append(kept, extra...), late...)
	default:
		segs = append(segs, extra...)
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	}
	return segs
}

// TestReassemblyMatchesReference: for random arrival schedules, the
// conn's receive path, from handleSegment through its Reassembly to the
// data and close callbacks, delivers exactly the reference's (arrival,
// offset, length) sequence — the same bytes in the same callbacks at the
// same segment — signals EOF at the same segment, and gives every
// parked copy back.
func TestReassemblyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26)) //nolint:gosec
	for trial := 0; trial < 500; trial++ {
		payload := patterned(1 + rng.Intn(20_000))
		segs := arrivals(rng, payload)

		ref := &refReceiver{recvBuf: map[uint64][]byte{}, eofAt: -1}
		for i, seg := range segs {
			ref.processData(i, seg)
		}

		arena := &bufpool.Arena{}
		c := receiverConn(arena)
		var log []delivery
		got, eofAt, arrival := 0, -1, 0
		c.SetDataFunc(func(p []byte) {
			if !bytes.Equal(p, payload[got:got+len(p)]) {
				t.Fatalf("trial %d: delivery at offset %d is not the payload's bytes", trial, got)
			}
			log = append(log, delivery{arrival, got, len(p)})
			got += len(p)
		})
		c.SetCloseFunc(func(err error) {
			if err == nil {
				eofAt = arrival
			}
		})
		for i, seg := range segs {
			arrival = i
			c.handleSegment(seg)
		}

		if !slices.Equal(log, ref.log) {
			t.Fatalf("trial %d: deliveries\n got %v\nwant %v", trial, log, ref.log)
		}
		if eofAt != ref.eofAt || eofAt < 0 || got != len(payload) {
			t.Fatalf("trial %d: EOF at arrival %d after %d bytes, reference at %d after %d of %d",
				trial, eofAt, got, ref.eofAt, ref.got, len(payload))
		}
		if st := arena.Stats(); st.InUse != 0 {
			t.Fatalf("trial %d: reassembly arena %+v after EOF", trial, st)
		}
	}
}

// TestInOrderDeliveryTakesNoArenaBuffer: segments that arrive in order
// reach the application without a reassembly copy, and the FIN, an
// offset, takes none either.
func TestInOrderDeliveryTakesNoArenaBuffer(t *testing.T) {
	payload := patterned(200_000)
	arena := &bufpool.Arena{}
	c := receiverConn(arena)
	got := 0
	c.SetDataFunc(func(p []byte) { got += len(p) })
	for off := 0; off < len(payload); off += mss {
		end := min(off+mss, len(payload))
		c.handleSegment(&segment{seq: uint64(off), payload: payload[off:end]})
	}
	if st := arena.Stats(); st.Gets != 0 || got != len(payload) {
		t.Fatalf("in-order data: %d of %d bytes delivered, arena %+v", got, len(payload), st)
	}
	c.handleSegment(&segment{seq: uint64(len(payload)), flags: flagFIN})
	if st := arena.Stats(); st.Gets != 0 || st.InUse != 0 || !c.rcv.EOF() {
		t.Fatalf("FIN: EOF=%v, arena %+v", c.rcv.EOF(), st)
	}
}
