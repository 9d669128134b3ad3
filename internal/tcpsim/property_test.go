package tcpsim

import (
	"math/rand"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// TestReceiverReassemblyAnyOrder drives the receive path directly with
// randomly segmented, duplicated, and reordered segments and asserts the
// application sees the exact in-order byte stream.
func TestReceiverReassemblyAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) //nolint:gosec
	for trial := 0; trial < 200; trial++ {
		payload := patterned(1 + rng.Intn(6000))

		var segs []*segment
		for off := 0; off < len(payload); {
			n := 1 + rng.Intn(900)
			if off+n > len(payload) {
				n = len(payload) - off
			}
			seg := &segment{seq: uint64(off), payload: payload[off : off+n]}
			if off+n == len(payload) {
				seg.flags |= flagFIN
			}
			segs = append(segs, seg)
			off += n
		}
		// Retransmission duplicates, including partially overlapping
		// re-segmentations starting at random offsets.
		for i := 0; i < len(segs)/3; i++ {
			segs = append(segs, segs[rng.Intn(len(segs))])
		}
		for i := 0; i < 3 && len(payload) > 2; i++ {
			start := rng.Intn(len(payload) - 1)
			end := start + 1 + rng.Intn(len(payload)-start-1)
			segs = append(segs, &segment{seq: uint64(start), payload: payload[start:end]})
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

		// A disconnected conn: handleSegment's sends go to a dead
		// network (no listener), which is fine for receive-side logic.
		sched := &simnet.Scheduler{MaxEvents: 1_000_000}
		net := simnet.NewNetwork(sched, nil, seqrand.New(1))
		host := net.AddHost("recv")
		c := newConn(host, "", Config{}.withDefaults())
		c.isClient = true
		c.localPort = host.BindEphemeral(func(simnet.Packet) {})
		c.state = stateEstablished

		var got []byte
		eof := false
		c.SetDataFunc(func(p []byte) { got = append(got, p...) })
		c.SetCloseFunc(func(err error) {
			if err == nil {
				eof = true
			}
		})
		for _, seg := range segs {
			c.handleSegment(seg)
		}
		if !eof {
			t.Fatalf("trial %d: EOF not delivered", trial)
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
