package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// TestReceiverReassemblyAnyOrder: randomly cut segments, with the FIN on
// the last one or on a bare FIN after it, duplicated, re-segmented at
// random offsets and shuffled, reach the application through
// handleSegment as the exact byte stream, followed by one EOF. The ACK
// after the last arrival covers the FIN's sequence number, finSeq+1,
// and a duplicate FIN after it is ACKed again. The arrival-by-arrival
// rules are bytestream.Reassembly's, checked against an oracle there;
// this is the wiring.
func TestReceiverReassemblyAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) //nolint:gosec
	for trial := 0; trial < 200; trial++ {
		payload := patterned(1 + rng.Intn(6000))
		finSeq := uint64(len(payload))
		var segs []*segment
		for off := 0; off < len(payload); {
			n := min(1+rng.Intn(900), len(payload)-off)
			segs = append(segs, &segment{seq: uint64(off), payload: payload[off : off+n]})
			off += n
		}
		if rng.Intn(3) == 0 {
			segs = append(segs, &segment{seq: finSeq, flags: flagFIN})
		} else {
			segs[len(segs)-1].flags |= flagFIN
		}
		for i := 0; i < len(segs)/3; i++ {
			segs = append(segs, segs[rng.Intn(len(segs))])
		}
		for i := 0; i < 3 && len(payload) > 2; i++ {
			start := rng.Intn(len(payload) - 1)
			end := start + 1 + rng.Intn(len(payload)-start-1)
			segs = append(segs, &segment{seq: uint64(start), payload: payload[start:end]})
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

		c := receiverConn(&bufpool.Arena{})
		var acks []uint64
		c.host.Network().SetFilter(func(pkt simnet.Packet) bool {
			acks = append(acks, pkt.Payload.(*segment).ack)
			return false
		})
		var got []byte
		eofs := 0
		c.SetDataFunc(func(p []byte) { got = append(got, p...) })
		c.SetCloseFunc(func(err error) {
			if err == nil {
				eofs++
			}
		})
		for _, seg := range segs {
			c.handleSegment(seg)
		}
		if !bytes.Equal(got, payload) || eofs != 1 || acks[len(acks)-1] != finSeq+1 {
			t.Fatalf("trial %d: %d of %d bytes (equal %v), %d EOFs, last ACK %d, finSeq %d",
				trial, len(got), len(payload), bytes.Equal(got, payload), eofs, acks[len(acks)-1], finSeq)
		}
		n := len(acks)
		c.handleSegment(&segment{seq: finSeq, flags: flagFIN})
		if len(acks) != n+1 || acks[n] != finSeq+1 || eofs != 1 {
			t.Fatalf("trial %d: duplicate FIN: ACKs %v, want one of %d; %d EOFs", trial, acks[n:], finSeq+1, eofs)
		}
	}
}

// TestRTTEstimatorMonotonicity: the RTO stays within configured clamps
// for arbitrary sample sequences.
func TestRTTEstimatorClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(3)) //nolint:gosec
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, nil, seqrand.New(1))
	host := net.AddHost("h")
	c := newConn(host, "", Config{}.withDefaults())
	for i := 0; i < 10_000; i++ {
		c.rttSample(randDuration(rng))
		if c.rto < profile.TimeoutFloor || c.rto > profile.TimeoutCeiling {
			t.Fatalf("RTO %v escaped [%v, %v]", c.rto, profile.TimeoutFloor, profile.TimeoutCeiling)
		}
		if c.rtt.SRTT <= 0 {
			t.Fatalf("SRTT %v not positive", c.rtt.SRTT)
		}
	}
}

func randDuration(rng *rand.Rand) time.Duration {
	// Mix of tiny, normal, and absurd samples, including zero.
	switch rng.Intn(3) {
	case 0:
		return time.Duration(rng.Intn(1000))
	case 1:
		return time.Duration(rng.Intn(200_000_000))
	default:
		return time.Duration(rng.Int63n(120_000_000_000))
	}
}
